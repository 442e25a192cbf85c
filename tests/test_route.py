import heapq
import itertools
import random
import re
from collections import Counter, deque

import pytest

from topoasm.geom import (
    Box3,
    DefectPolyline,
    Point3,
    box_from_extents,
    cell_box,
    merge_boxes,
)
from topoasm.route import (
    GUIDE,
    OCCUPY,
    SEG_C,
    SEG_E,
    SEARCH_MARGIN,
    BlockedView,
    NoPathError,
    ObstacleRegistry,
    RouteError,
    SegmentSpec,
    World,
    claim_run,
    compute_taskset,
    default_bounds,
    describe_spec,
    plan_segment,
)
from topoasm.spatial import UnknownEntryError

from conftest import (
    box_cells,
    contains_cell,
    enabled_obstacles,
    journal_claims,
    obstacle_records,
    polyline_cells,
    polyline_from_cells,
)

BOUNDS = box_from_extents(Point3(0, 0, 0), (20, 20, 20))


def bfs_length(start, stop, blocked, bounds):
    """Breadth-first oracle; returns number of cells on a shortest path or None."""
    if blocked(start) or blocked(stop):
        return None
    q = deque([(start, 1)])
    seen = {start}
    while q:
        cell, n = q.popleft()
        if cell == stop:
            return n
        for d in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
            nb = (cell[0] + d[0], cell[1] + d[1], cell[2] + d[2])
            if nb in seen or not contains_cell(bounds, nb) or blocked(nb):
                continue
            seen.add(nb)
            q.append((nb, n + 1))
    return None


def spec(start, stop, prio=1, seg=SEG_C, owner="t", obstacles=()):
    return SegmentSpec(Point3(*start), Point3(*stop), tuple(obstacles), prio, seg, owner)


def axis_box(axis, along, on_b, on_c):
    """The box spanning ``along`` on ``axis`` and ``on_b``, ``on_c`` on the
    other two axes, in (t, x, y) order."""
    b, c = (i for i in range(3) if i != axis)
    lo, hi = [0] * 3, [0] * 3
    for i, (low, high) in ((axis, along), (b, on_b), (c, on_c)):
        lo[i], hi[i] = low, high
    return Box3(Point3(*lo), Point3(*hi))


def search_box(s):
    """The box both endpoints span, ``SEARCH_MARGIN`` cells wider on every
    side: the search box ``default_bounds`` must give."""
    m = SEARCH_MARGIN
    return merge_boxes(cell_box(s.start.as_tuple()), cell_box(s.stop.as_tuple())).inflated(m, m, m)


def eager_plan(s, world):
    """Reference router: ``plan_segment`` with the blocked check made when a
    neighbour is pushed, not when it is popped, and with a single heap keyed
    ``(f, h, cell)``, a ``g`` map and a set of settled cells in place of one
    list per f level kept sorted by ``(h, cell)``.  A settled cell pushes
    all six neighbours at once, where ``plan_segment`` queues only its
    steps towards stop and makes its steps away when the level runs dry.
    It searches ``search_box(s)`` and exempts the spec's own obstacles.
    Returns the path's cells, or ``("nopath", detail, searched)``."""
    start, stop = s.start.as_tuple(), s.stop.as_tuple()
    bounds = search_box(s)
    view = BlockedView(world, bounds, s.obstacles)
    if view.is_blocked(start):
        return ("nopath", "start cell blocked", 0)
    if view.is_blocked(stop):
        return ("nopath", "stop cell blocked", 0)
    if start == stop:
        return (start,)

    def h(cell):
        return abs(cell[0] - stop[0]) + abs(cell[1] - stop[1]) + abs(cell[2] - stop[2])

    g = {start: 0}
    parent = {}
    heap = [(h(start), h(start), start)]
    settled = set()
    while heap:
        _, _, cell = heapq.heappop(heap)
        if cell in settled:
            continue
        if cell == stop:
            out = [cell]
            while cell != start:
                cell = parent[cell]
                out.append(cell)
            return tuple(reversed(out))
        settled.add(cell)
        for d in ((-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)):
            nb = (cell[0] + d[0], cell[1] + d[1], cell[2] + d[2])
            if nb in settled or view.is_blocked(nb):
                continue
            if g[cell] + 1 < g.get(nb, 1 << 30):
                g[nb] = g[cell] + 1
                parent[nb] = cell
                heapq.heappush(heap, (g[nb] + h(nb), h(nb), nb))
    detail = f"searched {len(settled)} cells in {bounds.lo.as_tuple()}..{bounds.hi.as_tuple()}"
    return ("nopath", detail, len(settled))


def planned(s, world):
    """``plan_segment``'s outcome: its polyline, or a failure in
    ``eager_plan``'s form, whose detail is its message past the spec and
    whose searched count is parsed from it (0 when the search never
    started)."""
    try:
        return plan_segment(s, world)
    except NoPathError as exc:
        prefix = f"no path for segment {describe_spec(s)} "
        assert str(exc).startswith(prefix) and exc.spec is s
        detail = str(exc)[len(prefix):]
        searched = re.fullmatch(r"searched (\d+) cells in \(.+\)\.\.\(.+\)", detail)
        return ("nopath", detail, int(searched[1]) if searched else 0)


def same_as_eager(s, world, note=None):
    """Check ``plan_segment`` against ``eager_plan`` and return the
    reference's outcome: the same failure, or the polyline of exactly the
    reference's cells (a polyline's cells are the path's, so equal
    polylines are equal paths), covering as many cells."""
    want = eager_plan(s, world)
    got = planned(s, world)
    if want[0] == "nopath":
        assert got == want, note
    else:
        assert got == polyline_from_cells(want, "primal", s.segment_class), note
        assert len(got) == len(want), note
    return want


def lazy_pops(s, world):
    """Reference pop order: one lazy heap keyed ``(f, h, cell)``, a ``g``
    map and a set of settled cells, with the blocked check made when a
    cell is popped and ``stop`` returned when popped, as ``plan_segment``
    does.  A popped cell pushes each of its six neighbours whose ``g`` it
    lowers, blocked or not; an entry whose cell is already settled is
    stale and skipped.  Returns the cells handed to the blocked check, in
    order: start, stop, then each pop before stop's, and, for each of
    those pops, its ``(f, h)`` and its parent's ``h``."""
    start, stop = s.start.as_tuple(), s.stop.as_tuple()
    view = BlockedView(world, search_box(s), s.obstacles)
    checks, keys = [start], []
    if view.is_blocked(start):
        return checks, keys
    checks.append(stop)
    if view.is_blocked(stop):
        return checks, keys

    def h(cell):
        return abs(cell[0] - stop[0]) + abs(cell[1] - stop[1]) + abs(cell[2] - stop[2])

    g, parent_h, settled = {start: 0}, {start: None}, set()
    heap = [(h(start), h(start), start)]
    while heap:
        f, hc, cell = heapq.heappop(heap)
        if cell in settled:
            continue
        if cell == stop:
            break
        settled.add(cell)
        checks.append(cell)
        keys.append((f, hc, parent_h[cell]))
        if view.is_blocked(cell):
            continue
        for d in ((-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)):
            nb = (cell[0] + d[0], cell[1] + d[1], cell[2] + d[2])
            if nb not in settled and g[cell] + 1 < g.get(nb, 1 << 30):
                g[nb], parent_h[nb] = g[cell] + 1, hc
                heapq.heappush(heap, (g[nb] + h(nb), h(nb), nb))
    return checks, keys


def same_pops(s, world, monkeypatch, note=None):
    """Check that the cells ``plan_segment`` hands to
    ``BlockedView.is_blocked`` are ``lazy_pops``'s, in its order, whether
    it finds a path or not, and return the reference's pop keys."""
    want, keys = lazy_pops(s, world)
    cells, is_blocked = [], BlockedView.is_blocked

    def record(view, cell):
        cells.append(cell)
        return is_blocked(view, cell)

    with monkeypatch.context() as m:
        m.setattr(BlockedView, "is_blocked", record)
        planned(s, world)
    assert cells == want, note
    return keys


# -- blocked cells ---------------------------------------------------------------


def test_empty_world_nothing_blocked():
    w = World()
    view = BlockedView(w, BOUNDS, ())
    assert not any(view.is_blocked((t, 0, 0)) for t in range(4))


def test_guide_outranks_occupy():
    w = World()
    region = box_from_extents(Point3(5, 5, 5), (2, 2, 2))
    w.obstacles.add(region, GUIDE, 3, "other1")
    w.obstacles.add(region, OCCUPY, 1, "other2")
    assert BlockedView(w, BOUNDS, ()).is_blocked((5, 5, 5))


def test_only_the_specs_own_obstacles_are_exempt():
    """A spec's own obstacles do not block its search, enabled or not; an
    obstacle switched off in the registry but not owned by the spec still
    blocks.  The search switches nothing."""
    w = World()
    mine = w.obstacles.add(box_from_extents(Point3(1, 0, 0), (1, 1, 1)), OCCUPY, 1, "me")
    other = w.obstacles.add(box_from_extents(Point3(2, 0, 0), (1, 1, 1)), GUIDE, 0, "other")
    w.obstacles.disable(other)
    for mine_on in (True, False):
        if not mine_on:
            w.obstacles.disable(mine)
        view = BlockedView(w, BOUNDS, (mine,))
        assert not view.is_blocked((1, 0, 0)) and view.is_blocked((2, 0, 0))
        assert BlockedView(w, BOUNDS, ()).is_blocked((1, 0, 0))
        # through its own obstacle, straight; around the other one, a detour
        path = plan_segment(spec((0, 0, 0), (1, 0, 0), obstacles=(mine,)), w)
        assert path.vertices == [(0, 0, 0), (1, 0, 0)] and len(path) == 2
        path = plan_segment(spec((0, 0, 0), (3, 0, 0), obstacles=(mine,)), w)
        cells = polyline_cells(path)
        assert (1, 0, 0) in cells and (2, 0, 0) not in cells and len(path) == len(cells) == 6
        path = plan_segment(spec((0, 0, 0), (3, 0, 0)), w)
        assert not {(1, 0, 0), (2, 0, 0)} & polyline_cells(path)
        assert w.obstacles.get(mine).enabled is mine_on
        assert not w.obstacles.get(other).enabled


def test_disabled_tracks_switched_off_obstacles_under_random_scripts():
    """After every step of seeded add/disable/enable/remove scripts, each
    live obstacle's ``enabled`` flag is the state the script last set, and
    a switch writes its ``obstacle-on`` or ``obstacle-off`` line exactly
    when it flips the flag (a removal switches the obstacle off first)."""
    for seed in range(6):
        rng = random.Random(seed)
        reg = World().obstacles
        want = {}  # id -> the enabled state last set, of each live obstacle
        for step in range(200):
            roll = rng.random()
            if roll < 0.3 or not want:
                lo = Point3(rng.randint(0, 30), rng.randint(0, 30), rng.randint(0, 30))
                oid = reg.add(box_from_extents(lo, (rng.randint(1, 80), 1, 2)),
                              rng.choice((GUIDE, OCCUPY)), rng.randint(0, 9), "x")
                want[oid] = True
            else:
                oid = rng.choice(sorted(want))
                op = "disable" if roll < 0.6 else "enable" if roll < 0.85 else "remove"
                before = len(reg.journal.lines)
                getattr(reg, op)(oid)
                on = op == "enable"
                flip = [f"0 obstacle-{'on' if on else 'off'} {oid}"] if want[oid] != on else []
                assert reg.journal.lines[before:] == flip, (seed, step)
                if op == "remove":
                    del want[oid]
                else:
                    want[oid] = on
            got = {oid: obs.enabled for oid, obs in obstacle_records(reg) if obs is not None}
            assert got == want, (seed, step)


def test_blocked_view_matches_rasterized_live_boxes():
    """Independent oracle: rasterize the boxes this test keeps live and not
    exempt, and compare with the view on every cell of the bounds.  The
    exempt obstacles are a random subset of the live ones, drawn apart
    from the switches, so a switched-off obstacle that is not exempt
    still blocks and an exempt one that is enabled does not."""
    rng = random.Random(2024)
    bounds = box_from_extents(Point3(0, 0, 0), (12, 12, 12))
    for trial in range(40):
        w = World()
        live = {}  # id -> box of every solid and every live obstacle
        for i in range(rng.randint(1, 6)):
            lo = Point3(rng.randint(-2, 11), rng.randint(-2, 11), rng.randint(-2, 11))
            box = box_from_extents(lo, (rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)))
            if w.is_free(box):
                w.claim(f"s{i}", box, "circuit")
                live[f"s{i}"] = box
        obstacles = {}  # id -> box of every obstacle added
        for _ in range(rng.randint(1, 10)):
            lo = Point3(rng.randint(-2, 11), rng.randint(-2, 11), rng.randint(-2, 11))
            box = box_from_extents(lo, (rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)))
            kind = GUIDE if rng.random() < 0.5 else OCCUPY
            obstacles[w.obstacles.add(box, kind, rng.randint(0, 9), "x")] = box
        live.update(obstacles)
        for oid, box in obstacles.items():
            roll = rng.random()
            if roll < 0.3:
                w.obstacles.disable(oid)
                then = rng.random()
                if then < 0.3:
                    w.obstacles.enable(oid)
                elif then < 0.5:
                    w.obstacles.remove(oid)
                    del live[oid]
            elif roll < 0.5:
                w.obstacles.remove(oid)
                del live[oid]
        exempt = {oid for oid in obstacles if oid in live and rng.random() < 0.4}
        want = set()
        for oid, box in live.items():
            if oid not in exempt:
                want.update(c for c in box_cells(box) if contains_cell(bounds, c))
        view = BlockedView(w, bounds, exempt)
        for cell in box_cells(bounds):
            assert view.is_blocked(cell) == (cell in want), (trial, cell)


# -- plan_segment --------------------------------------------------------------


def test_straight_path_unobstructed():
    w = World()
    path = plan_segment(spec((0, 0, 0), (3, 0, 0)), w)
    assert path == DefectPolyline("primal", SEG_C, [Point3(0, 0, 0), Point3(3, 0, 0)])
    assert len(path) == 4


def test_detour_matches_bfs_oracle():
    w = World()
    s = spec((0, 3, 3), (12, 3, 3))
    bounds = default_bounds(s)
    # slab wall across the search box with a single hole far off the
    # straight line: the box's last row in y
    lo, hi = bounds
    w.claim("wall", Box3(Point3(5, lo.x, lo.y), Point3(6, hi.x, hi.y - 1)), "circuit")
    path = plan_segment(s, w)
    view = BlockedView(w, bounds, ())
    want = bfs_length(s.start.as_tuple(), s.stop.as_tuple(), view.is_blocked, bounds)
    assert len(path) == want
    assert {c[2] for c in polyline_cells(path) if c[0] == 5} == {hi.y - 1}


def test_walled_off_stop_raises():
    w = World()
    stop = Point3(10, 10, 10)
    for d in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
        cell = stop.shifted(*d)
        w.claim(f"wall{d}", box_from_extents(cell, (1, 1, 1)), "circuit")
    s = spec((0, 0, 0), (10, 10, 10))
    with pytest.raises(NoPathError) as info:
        plan_segment(s, w)
    assert default_bounds(s) == search_box(s) == Box3(Point3(-10, -10, -10), Point3(21, 21, 21))
    # everything in the 31^3 search box but the stop and its six walls is reachable
    assert str(info.value) == (
        "no path for segment connection_c[t] (0, 0, 0)->(10, 10, 10) pi=1 "
        f"searched {31 ** 3 - 7} cells in (-10, -10, -10)..(21, 21, 21)"
    )
    assert info.value.spec is s
    s = spec((10, 11, 10), (0, 0, 0))
    with pytest.raises(NoPathError) as info:
        plan_segment(s, w)
    assert str(info.value) == "no path for segment connection_c[t] (10, 11, 10)->(0, 0, 0) pi=1 start cell blocked"
    assert same_as_eager(s, w) == ("nopath", "start cell blocked", 0)


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize(
    "blocker", ["free", "solid", "obstacle", "disabled-obstacle", "own-obstacle"])
def test_single_axis_spec_matches_bfs(axis, direction, blocker):
    """On single-axis specs A* returns the straight run when it is free and
    detours around whatever blocks it, always as short as the BFS oracle.
    An obstacle switched off but not the spec's own blocks; the spec's own
    does not, though enabled."""
    start = (10, 10, 10)
    stop = tuple(c + 6 * direction if i == axis else c for i, c in enumerate(start))
    mid = tuple(c + 3 * direction if i == axis else c for i, c in enumerate(start))
    w = World()
    blocked = set()
    own = ()
    if blocker == "solid":
        w.claim("wall", box_from_extents(Point3(*mid), (1, 1, 1)), "circuit")
        blocked.add(mid)
    elif blocker != "free":
        oid = w.obstacles.add(box_from_extents(Point3(*mid), (1, 1, 1)), GUIDE, 0, "other")
        if blocker == "own-obstacle":
            own = (oid,)
        else:
            blocked.add(mid)
        if blocker == "disabled-obstacle":
            w.obstacles.disable(oid)
    s = spec(start, stop, obstacles=own)
    path = plan_segment(s, w)
    cells = polyline_cells(path)  # a polyline's segments are axis-aligned
    assert path.vertices[0] == start and path.vertices[-1] == stop
    assert not blocked & cells and len(cells) == len(path)
    assert len(path) == bfs_length(start, stop, blocked.__contains__, default_bounds(s))
    if not blocked:
        assert len(path) == 7 and mid in cells


def test_zero_length_segment_is_a_single_cell():
    w = World()
    path = plan_segment(spec((4, 4, 4), (4, 4, 4), seg=SEG_E), w)
    assert path == DefectPolyline("primal", SEG_E, [Point3(4, 4, 4)]) and len(path) == 1


def test_random_instances_match_bfs(monkeypatch):
    rng = random.Random(99)
    solved = 0
    blocked_agree = 0
    for trial in range(200):
        w = World()
        solid = set()
        for i in range(rng.randint(2, 14)):
            lo = Point3(rng.randint(0, 16), rng.randint(0, 16), rng.randint(0, 16))
            ext = (rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5))
            box = box_from_extents(lo, ext)
            try:
                w.claim(f"o{i}", box, "circuit")
            except RouteError:
                continue  # overlapping random solids: skip, coverage is what matters
            solid.update(box_cells(box))
        # endpoints in the middle of the solids keep their search box within 33^3
        free = [cell for cell in itertools.product(range(4, 16), repeat=3) if cell not in solid]
        start, stop = rng.sample(free, 2)
        s = spec(start, stop)
        bounds = default_bounds(s)
        view = BlockedView(w, bounds, ())
        want = bfs_length(start, stop, view.is_blocked, bounds)
        same_as_eager(s, w, trial)
        same_pops(s, w, monkeypatch, trial)
        try:
            path = plan_segment(s, w)
        except NoPathError:
            assert want is None
            blocked_agree += 1
            continue
        assert want is not None and len(path) == want
        # path validity: axis-aligned segments, no repeats, endpoint match
        assert path.vertices[0] == start and path.vertices[-1] == stop
        assert len(polyline_cells(path)) == len(path)
        solved += 1
    assert solved > 100
    assert solved + blocked_agree == 200


def test_paths_equal_eager_reference_with_guides_and_faces(monkeypatch):
    """Against guide obstacles, enabled or switched off, some of them the
    spec's own, with endpoints on the faces of the populated cube and guide
    walls across the whole search box, ``plan_segment`` returns the polyline
    of the eager reference's cells, or fails with its detail and settled
    count, and makes the lazy reference's blocked checks in its order."""
    rng = random.Random(8)

    def faces(c):
        return [c[:i] + (v,) + c[i + 1:] for i in range(3) for v in (0, 11)]

    outcomes = Counter()
    for trial in range(150):
        w = World()
        for i in range(rng.randint(0, 6)):
            lo = Point3(rng.randint(0, 10), rng.randint(0, 10), rng.randint(0, 10))
            box = box_from_extents(lo, (rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)))
            if w.is_free(box):
                w.claim(f"s{i}", box, "circuit")
        own = []
        for _ in range(rng.randint(1, 8)):
            lo = Point3(rng.randint(0, 11), rng.randint(0, 11), rng.randint(0, 11))
            box = box_from_extents(lo, (rng.randint(1, 12), rng.randint(1, 3), rng.randint(1, 12)))
            oid = w.obstacles.add(box, GUIDE, 0, "g")
            if rng.random() < 0.4:
                w.obstacles.disable(oid)
            if rng.random() < 0.3:
                own.append(oid)
        if rng.random() < 0.5:  # a guide wall across the whole search box
            axis, at = rng.randrange(3), rng.randint(1, 10)
            lo = Point3(*(at if i == axis else -SEARCH_MARGIN for i in range(3)))
            extent = 12 + 2 * SEARCH_MARGIN
            w.obstacles.add(box_from_extents(lo, tuple(1 if i == axis else extent for i in range(3))),
                            GUIDE, 0, "wall")
        cells = [(rng.randint(0, 11), rng.randint(0, 11), rng.randint(0, 11)) for _ in range(2)]
        start, stop = (rng.choice(faces(c)) for c in cells)
        s = spec(start, stop, obstacles=own)
        got = same_as_eager(s, w, trial)
        same_pops(s, w, monkeypatch, trial)
        outcomes["path" if got[0] != "nopath" else "exhausted" if got[2] else "refused"] += 1
        assert default_bounds(s) == search_box(s)
    # found paths, searches that exhaust their box and refused endpoints all occur
    assert min(outcomes["path"], outcomes["exhausted"], outcomes["refused"]) >= 5, outcomes


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("direction", [1, -1])
def test_detour_away_from_stop_matches_eager_reference(axis, direction):
    """A cup of walls around start, closed towards stop, forces the path to
    step away from stop along ``axis`` before it can pass the wall; the
    search's per-step heuristic update must then agree with the eager
    reference, which recomputes the L1 distance for every cell."""
    start = (10, 10, 10)
    stop = tuple(c + 6 * direction if i == axis else c for i, c in enumerate(start))
    plate = 10 + 2 * direction  # the wall between start and stop
    sides = (7, 12) if direction > 0 else (9, 14)  # the cup's side walls, open behind start
    w = World()
    w.claim("plate", axis_box(axis, (plate, plate + 1), (5, 16), (5, 16)), "circuit")
    for i, (on_b, on_c) in enumerate((((5, 6), (5, 16)), ((15, 16), (5, 16)),
                                      ((6, 15), (5, 6)), ((6, 15), (15, 16)))):
        w.claim(f"side{i}", axis_box(axis, sides, on_b, on_c), "circuit")
    s = spec(start, stop)
    got = same_as_eager(s, w)
    bounds = default_bounds(s)
    assert len(got) == bfs_length(start, stop, BlockedView(w, bounds, ()).is_blocked, bounds)
    # the path backs out of the cup, away from stop
    assert min(cell[axis] * direction for cell in got) < (start[axis] - 2) * direction


# the span, on each axis, of the search box of any two cells in [0, 20)^3
# whose coordinates off the plates' axis lie in [5, 15)
PLATE = (5 - SEARCH_MARGIN, 15 + SEARCH_MARGIN)


def plate_boxes(axis, at, hole):
    """The cross-section at ``at`` along ``axis``, one cell thick, of the
    search box of any two cells ``PLATE`` spans, less the rectangle ``hole`` =
    ((b0, b1), (c0, c1)) on the two other axes: up to four boxes."""
    lo, hi = PLATE
    (b0, b1), (c0, c1) = hole
    return [axis_box(axis, (at, at + 1), on_b, on_c)
            for on_b, on_c in (((lo, b0), (lo, hi)), ((b1, hi), (lo, hi)),
                               ((b0, b1), (lo, c0)), ((b0, b1), (c1, hi)))
            if on_b[0] < on_b[1] and on_c[0] < on_c[1]]


def test_stacked_plates_and_baffles_match_eager_reference(monkeypatch):
    """Plates with small holes and half-plate baffles, stacked between
    start and stop, force paths that step away from stop again and again,
    so the search opens several f levels; a plate without a hole walls
    stop off.  ``plan_segment`` must return the polyline of the eager
    reference's cells, or fail with its detail and settled count, and
    make the lazy reference's blocked checks in its order."""
    rng = random.Random(18)
    outcomes = Counter()
    for trial in range(80):
        w = World()
        axis = rng.randrange(3)
        plates = sorted(rng.sample(range(3, 17, 2), rng.randint(2, 4)))
        for n, at in enumerate(plates):
            shape = rng.random()
            if shape < 0.05:  # no hole
                hole = ((0, 0), (0, 0))
            elif shape < 0.55:  # a hole of 1 to 3 cells a side
                b0, c0 = rng.randint(0, 17), rng.randint(0, 17)
                hole = ((b0, b0 + rng.randint(1, 3)), (c0, c0 + rng.randint(1, 3)))
            else:  # a baffle: the plate's low or high part along one axis
                cut = rng.randint(4, 16)
                half = (PLATE[0], cut) if rng.random() < 0.5 else (cut, PLATE[1])
                hole = (half, PLATE) if rng.random() < 0.5 else (PLATE, half)
            solid = rng.random() < 0.6
            for i, box in enumerate(plate_boxes(axis, at, hole)):
                if solid:
                    w.claim(f"p{n}.{i}", box, "circuit")
                else:
                    oid = w.obstacles.add(box, rng.choice((GUIDE, OCCUPY)), 0, "plate")
                    if rng.random() < 0.1:
                        w.obstacles.disable(oid)
        # off the axis, the ends lie in [5, 15): their search box takes in
        # every hole and stays within the plates
        ends = [[rng.randrange(5, 15) for _ in range(3)] for _ in range(2)]
        ends[0][axis] = rng.randint(0, plates[0] - 1)
        ends[1][axis] = rng.randint(plates[-1] + 1, 19)
        if rng.random() < 0.5:
            ends.reverse()
        start, stop = map(tuple, ends)
        s = spec(start, stop)
        got = same_as_eager(s, w, trial)
        same_pops(s, w, monkeypatch, trial)
        if got[0] == "nopath":
            outcomes["exhausted" if got[2] else "refused"] += 1
        else:
            l1 = sum(abs(u - v) for u, v in zip(start, stop))
            outcomes["detour 4+" if len(got) - 1 >= l1 + 4 else "path"] += 1
    # at least two level switches in many worlds, and walled-off stops
    assert outcomes["detour 4+"] >= 20 and outcomes["exhausted"] >= 5, outcomes


def plane_world(walls):
    """A world whose only free cells are those of the 8 x 8 (t, x) plane at
    y = 0 less the cells ``walls`` names by ``(t, x)``: solid slabs at
    y = -1 and y = 1 and a solid ring around the plane fence it in within
    the search box of any two of its cells."""
    w = World()
    lo, hi = -SEARCH_MARGIN - 1, 8 + SEARCH_MARGIN + 1
    for y in (-1, 1):
        w.claim(f"slab{y}", Box3(Point3(lo, lo, y), Point3(hi, hi, y + 1)), "circuit")
    for i, (t0, x0, t1, x1) in enumerate(((-1, -1, 0, 9), (8, -1, 9, 9), (0, -1, 8, 0),
                                          (0, 8, 8, 9))):
        w.claim(f"ring{i}", Box3(Point3(t0, x0, 0), Point3(t1, x1, 1)), "circuit")
    for t, x in walls:
        w.claim(f"wall{t}{x}", cell_box((t, x, 0)), "circuit")
    return w


def test_level_switch_gives_a_cell_its_first_expanded_parent():
    """In the (t, x) plane, start (3, 3) sits in a pocket with its two
    neighbours a = (3, 2) and b = (2, 3), walled off but for c = (2, 2).
    a and b are expanded at the same level, b first, since their keys
    ``(h, cell)`` tie on h; c is a step away from both, so the level switch
    must give it b, the first expanded, as its parent.  With stop walled
    off and start at stop's t, the half t < 6 is reached only by steps
    away at t = 6 towards lower t, and the exhausted search counts every
    reachable cell."""
    w = plane_world(((4, 3), (3, 4), (4, 2), (3, 1), (1, 3), (2, 4)))
    s = spec((3, 3, 0), (6, 6, 0))
    got = same_as_eager(s, w)
    assert got[:4] == ((3, 3, 0), (2, 3, 0), (2, 2, 0), (1, 2, 0))

    w = plane_world(((5, 6), (7, 6), (6, 5), (6, 7)))
    s = spec((6, 1, 0), (6, 6, 0))
    got = same_as_eager(s, w)
    # every cell but stop, its four walls and the corner (7, 7) they cut off
    assert got[0] == "nopath" and got[2] == 8 * 8 - 6


def test_level_seeds_at_three_h_values_pop_in_reference_order(monkeypatch):
    """In the (t, x) plane, a wall at x = 2 for t < 3 stands between start
    (1, 0) and stop (0, 4).  Level 5 expands (1, 0), (0, 0), (0, 1) and
    (1, 1), at h 5, 4, 3 and 4, so level 7 opens with seeds at h 4, 5 and
    6 in one sort; there the seed (2, 1), at h 5, steps towards stop onto
    the wall cell (2, 2), at h 4, a seed's h.  The cells ``plan_segment``
    checks must be the lazy reference's pops, in order."""
    w = plane_world(((0, 2), (1, 2), (2, 2)))
    s = spec((1, 0, 0), (0, 4, 0))
    keys = same_pops(s, w, monkeypatch)
    seeds = {h for f, h, up in keys if f == 7 and up == h - 1}
    dives = {h for f, h, up in keys if f == 7 and up == h + 1}
    assert seeds == {4, 5, 6} and dives == {4}, (seeds, dives)
    got = same_as_eager(s, w)  # round the wall's end at t = 3: two steps away
    assert (3, 2, 0) in got and len(got) == 5 + 2 * 2 + 1


# -- compute_taskset protocol ---------------------------------------------------


def test_single_spec_taskset_equals_plan():
    w1, w2 = World(), World()
    s = spec((0, 0, 0), (6, 0, 0))
    alone = plan_segment(s, w1)
    (committed,) = compute_taskset([spec((0, 0, 0), (6, 0, 0))], w2)
    assert committed == alone == polyline_from_cells(eager_plan(s, w1), "primal", SEG_C)
    assert polyline_cells(committed) == {(t, 0, 0) for t in range(7)}


def test_taskset_requires_distinct_priorities():
    ts = [spec((0, 0, 0), (2, 0, 0), prio=1), spec((0, 5, 0), (2, 5, 0), prio=1)]
    with pytest.raises(RouteError):
        compute_taskset(ts, World())


def three_connection_scenario():
    """Three connections over one blocked slab, per the protection idiom:
    the occupy obstacle of the last (lowest-priority) connection reserves
    its corridor, the middle one reserves the near crossing lane, and the
    guide of the first protects a rail-like bar that outlives the pass.

    Computed in the order white (255), grey (128), black (0); the
    obstacles push the earlier connections outward so the final, most
    constrained one keeps its direct route.
    """
    w = World()
    # black reserves the slab t 4..7 up to x 8 for its vertical drop
    yellow = w.obstacles.add(Box3(Point3(4, -12, -12), Point3(8, 8, 13)), OCCUPY, 0, "black")
    # grey reserves the crossing lane at x 8..11 next to the slab
    orange = w.obstacles.add(Box3(Point3(4, 8, -12), Point3(8, 12, 13)), OCCUPY, 128, "grey")
    # white's guide fences a far corner, like a pool rail would
    magenta = w.obstacles.add(Box3(Point3(10, 14, -12), Point3(16, 16, 13)), GUIDE, 255, "white")

    white = spec((0, 2, 0), (15, 2, 0), prio=255, owner="white", obstacles=(magenta,))
    grey = spec((0, 5, 0), (15, 5, 0), prio=128, owner="grey", obstacles=(orange,))
    black = spec((5, 0, 0), (5, 7, 0), prio=0, owner="black", obstacles=(yellow,))
    return w, [white, grey, black], (magenta, orange, yellow)


def test_three_connection_scenario_routes_disjoint():
    w, ts, (magenta, orange, yellow) = three_connection_scenario()
    paths = compute_taskset(ts, w)
    assert len(paths) == 3
    cells = [polyline_cells(p) for p in paths]
    assert cells[0] & cells[1] == set()
    assert cells[0] & cells[2] == set()
    assert cells[1] & cells[2] == set()
    white, grey, black = paths
    # the protected black connection keeps its direct drop
    assert len(black) == 8
    # white was pushed past both reservations, grey past black's only
    assert len(white) == 36
    assert 16 < len(grey) < len(white)


def test_protocol_reenables_only_guides():
    w, ts, (magenta, orange, yellow) = three_connection_scenario()
    compute_taskset(ts, w)
    enabled = {o.id for o in enabled_obstacles(w.obstacles)}
    assert magenta in enabled
    assert orange not in enabled and yellow not in enabled


def test_protocol_keeps_obstacles_indexed_and_removes_occupies(monkeypatch):
    w, ts, (magenta, orange, yellow) = three_connection_scenario()
    sizes = []
    for name in ("disable", "enable"):
        def toggle(oid, _orig=getattr(w.obstacles, name)):
            before = len(w.index)
            _orig(oid)
            sizes.append((before, len(w.index)))
        monkeypatch.setattr(w.obstacles, name, toggle)
    compute_taskset(ts, w)
    assert len(sizes) == 4  # each spec disables its obstacle; white re-enables its guide
    assert all(before == after for before, after in sizes)
    for occupy in (orange, yellow):
        with pytest.raises(UnknownEntryError):
            w.obstacles.get(occupy)
        with pytest.raises(UnknownEntryError):
            w.index.get(occupy)
    assert w.obstacles.get(magenta).enabled and w.obstacles.get(magenta) is w.index.get(magenta)


def rail_run_world():
    """A world with rail 0's line guide and connection c1's forward guard;
    c1's rail run starts at t = 4 on that rail, at ``(x, y) = (3, 4)``."""
    w = World()
    line = w.obstacles.add(Box3(Point3(0, 3, 4), Point3(40, 4, 5)), GUIDE, 0, "rail0")
    fwd = w.obstacles.add(Box3(Point3(5, 3, 3), Point3(40, 4, 5)), GUIDE, 0, "c1")
    return w, line, fwd


@pytest.mark.parametrize("stop_t", [9, 4], ids=["run", "one-cell"])
def test_rail_run_logs_its_switches_and_claims_one_straight_box(monkeypatch, stop_t):
    """A rail run never switches an obstacle: it writes the off and on
    lines of its line guide and forward guard around one claim line: the
    box spanning ``[first, last + 1)`` on the rail's one ``(x, y)`` cell.
    The box joins the rail's pending stretch, and its bits appear only
    when the rail is flushed."""
    w, line, fwd = rail_run_world()

    def refuse(self, oid):
        raise AssertionError(f"switched {oid}")

    monkeypatch.setattr(ObstacleRegistry, "disable", refuse)
    monkeypatch.setattr(ObstacleRegistry, "enable", refuse)
    assert claim_run(w, "c1", 4, stop_t, 3, 4, (line, fwd)) is None
    assert w.obstacles.get(line).enabled and w.obstacles.get(fwd).enabled
    box = Box3(Point3(4, 3, 4), Point3(stop_t + 1, 4, 5))
    assert w.journal.lines[2:] == [
        f"0 obstacle-off {line}",
        f"0 obstacle-off {fwd}",
        f"0 claim connection connection_e.c1.c0.0 4 3 4 {stop_t + 1} 4 5",
        f"0 obstacle-on {line}",
        f"0 obstacle-on {fwd}",
    ]
    assert journal_claims(w.journal) == [("connection", "connection_e.c1.c0.0", box)]
    assert set(box_cells(box)) == {(t, 3, 4) for t in range(4, stop_t + 1)}
    around = box.inflated(1, 1, 1)
    # the stretch keeps its first run's id and the index of its claim line
    assert w.pending == {(3, 4): [4, stop_t + 1, "connection_e.c1.c0.0", 4]}
    assert w.index.solid_rows(around) == 0 and w.is_free(box)
    # the flush is bits only: exactly the box's cells turn solid, no entry is kept
    w.flush(3, 4)
    assert not w.pending and len(w.journal.lines) == 7
    assert w.index.solid_rows(around) == 0b010 and len(w.index) == 2
    assert [c for c in box_cells(around) if not w.is_free(cell_box(c))] == list(box_cells(box))
    with pytest.raises(RouteError, match=r"^claim late overlaps \['connection_e\.c1\.c0\.0'\]$"):
        w.claim("late", box, "connection")


def test_rail_run_ids_follow_the_commit_sequence():
    """A run's claim id takes the next number of the world's commit
    sequence, shared with searched segments, so ids never repeat.  Runs
    that continue each other make one pending stretch; a run that does
    not, overlapping it or leaving a gap, is a fault that claims nothing.
    A stretch that meets a solid fails at its flush under its first run's
    id, naming the solids it meets but not its own runs, which no clash
    names while they are pending."""
    w, line, fwd = rail_run_world()
    compute_taskset([spec((0, 0, 0), (2, 0, 0), owner="c0")], w)
    claim_run(w, "c1", 4, 9, 3, 4, (line, fwd))
    claim_run(w, "c1", 10, 10, 3, 4, (line, fwd))
    ids = [ln.split()[3] for ln in w.journal.lines if ln.split()[1] == "claim"]
    assert ids == ["connection_c.c0.c0.0", "connection_e.c1.c1.0", "connection_e.c1.c2.0"]
    assert w.pending == {(3, 4): [4, 11, "connection_e.c1.c1.0", 5]}
    assert w.is_free(Box3(Point3(4, 3, 4), Point3(11, 4, 5)))
    for seq, (first, last) in enumerate(((8, 11), (12, 13)), 3):
        with pytest.raises(RouteError, match=rf"^rail run connection_e\.c1\.c{seq}\.0 from {first} "
                           r"does not continue the stretch at \(3, 4\) ending at 10$"):
            claim_run(w, "c1", first, last, 3, 4, (line, fwd))
    assert [ln.split()[3] for ln in w.journal.lines if ln.split()[1] == "claim"] == ids
    assert w.pending == {(3, 4): [4, 11, "connection_e.c1.c1.0", 5]}
    w.flush(3, 4)
    claim_run(w, "c1", 8, 11, 3, 4, (line, fwd))
    assert w.pending == {(3, 4): [8, 12, "connection_e.c1.c5.0", 19]}
    assert [w.journal.lines[i].split()[3] for i in (5, 19)] == [ids[1], "connection_e.c1.c5.0"]
    assert w.index.solid_rows(Box3(Point3(0, 3, 4), Point3(40, 4, 5))) == 1
    assert w.is_free(Box3(Point3(11, 3, 4), Point3(12, 4, 5)))
    with pytest.raises(RouteError, match=r"^claim connection_e\.c1\.c5\.0 overlaps "
                       r"\['connection_e\.c1\.c1\.0', 'connection_e\.c1\.c2\.0'\]$"):
        w.flush(3, 4)
    assert w.is_free(Box3(Point3(11, 3, 4), Point3(12, 4, 5)))
    # any other claim's fault leaves out the runs still pending as well
    with pytest.raises(RouteError, match=r"^claim late overlaps "
                       r"\['connection_e\.c1\.c1\.0', 'connection_e\.c1\.c2\.0'\]$"):
        w.claim("late", Box3(Point3(9, 3, 4), Point3(13, 4, 5)), "connection")


def self_avoiding_walk(rng, runs):
    """A walk of unit steps in ``runs`` straight runs of 1 to 4 cells along
    random axes; a run stops short where it would revisit a cell."""
    cells = [(0, 0, 0)]
    seen = set(cells)
    for _ in range(runs):
        axis, sign = rng.randrange(3), rng.choice((-1, 1))
        for _ in range(rng.randint(1, 4)):
            nb = tuple(c + sign if i == axis else c for i, c in enumerate(cells[-1]))
            if nb in seen:
                break
            cells.append(nb)
            seen.add(nb)
    return cells


def test_polyline_len_counts_its_cells():
    """``len`` of a polyline is the number of cells it covers: for random
    walks with turns, collapsed to their turn points, for a single vertex,
    and for the rail polylines of the runs the straight-claim test above
    claims, whose one box each covers as many cells."""
    rng = random.Random(24)
    turns = Counter()
    for trial in range(300):
        cells = self_avoiding_walk(rng, rng.randint(0, 12))
        poly = polyline_from_cells(cells, "primal", SEG_C)
        assert len(poly) == len(cells) == len(polyline_cells(poly)), trial
        turns[min(len(poly.vertices) - 2, 3)] += 1
    assert turns[3] >= 100, turns  # most walks turn at least three times

    assert len(DefectPolyline("primal", SEG_C, [Point3(3, -4, 5)])) == 1
    assert len(polyline_from_cells([(3, -4, 5)], "primal", SEG_C)) == 1

    for stop_t in (9, 4):
        w, line, fwd = rail_run_world()
        claim_run(w, "c1", 4, stop_t, 3, 4, (line, fwd))
        [(_, eid, box)] = journal_claims(w.journal)
        assert eid == "connection_e.c1.c0.0"
        vertices = [Point3(4, 3, 4)] + [Point3(stop_t, 3, 4)] * (stop_t > 4)
        poly = DefectPolyline("primal", SEG_E, vertices)
        assert poly.claim_boxes() == [box]
        assert len(poly) == stop_t - 4 + 1 == len(list(box_cells(box)))


def random_taskset(rng, prios):
    w = World()
    specs = []
    used = set()
    for i, prio in enumerate(prios):
        while True:
            start = (rng.randint(0, 15), rng.randint(0, 15), 0)
            stop = (rng.randint(0, 15), rng.randint(0, 15), 0)
            if start != stop and start not in used and stop not in used:
                used.add(start)
                used.add(stop)
                break
        own = []
        if rng.random() < 0.7:
            lo = Point3(rng.randint(0, 12), rng.randint(0, 12), 0)
            kind = GUIDE if rng.random() < 0.4 else OCCUPY
            oid = w.obstacles.add(
                box_from_extents(lo, (rng.randint(1, 4), rng.randint(1, 4), 1)),
                kind, prio, f"conn{i}",
            )
            own.append(oid)
        specs.append(
            SegmentSpec(Point3(*start), Point3(*stop), tuple(own), prio, SEG_C, f"conn{i}")
        )
    return w, specs


def run_outcome(w, ts):
    try:
        return compute_taskset(ts, w)
    except NoPathError as exc:
        return ("nopath", exc.spec.owner)


def test_priority_relabeling_invariance():
    rng = random.Random(31)
    for trial in range(50):
        n = rng.randint(2, 5)
        base = sorted(rng.sample(range(1, 300), n), reverse=True)
        seed = rng.randint(0, 10**6)
        w1, ts1 = random_taskset(random.Random(seed), base)
        relabeled = [3 * p + 7 for p in base]  # order-preserving
        w2, ts2 = random_taskset(random.Random(seed), relabeled)
        assert run_outcome(w1, ts1) == run_outcome(w2, ts2)


def test_committed_paths_disjoint_random_tasksets():
    rng = random.Random(17)
    for trial in range(20):
        n = rng.randint(2, 6)
        prios = sorted(rng.sample(range(256), n), reverse=True)
        w, ts = random_taskset(rng, prios)
        out = run_outcome(w, ts)
        if isinstance(out, tuple):
            continue
        seen = set()
        for poly in out:
            cells = polyline_cells(poly)
            assert seen.isdisjoint(cells)
            seen.update(cells)
