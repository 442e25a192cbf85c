import heapq
import itertools
import random
from collections import Counter, deque

import pytest

from topoasm.geom import Box3, Point3, box_from_extents, cell_box, merge_boxes
from topoasm.route import (
    GUIDE,
    OCCUPY,
    SEG_C,
    SEG_E,
    BlockedView,
    NoPathError,
    Path,
    RouteError,
    SegmentSpec,
    World,
    compute_taskset,
    default_bounds,
    plan_segment,
)
from topoasm.spatial import UnknownEntryError

from conftest import box_cells, enabled_obstacles, polyline_cells

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
            if nb in seen or not bounds.contains_cell(nb) or blocked(nb):
                continue
            seen.add(nb)
            q.append((nb, n + 1))
    return None


def spec(start, stop, prio=1, seg=SEG_C, owner="t", obstacles=()):
    return SegmentSpec(Point3(*start), Point3(*stop), tuple(obstacles), prio, seg, owner)


def eager_plan(s, world, bounds):
    """Reference router: ``plan_segment`` with the blocked check made when a
    neighbour is pushed, not when it is popped, and without the straight-run
    shortcut (A* returns that run anyway).  Returns the path's cells, or
    ``("nopath", detail, searched)``."""
    start, stop = s.start.as_tuple(), s.stop.as_tuple()
    if not bounds.contains_cell(start) or not bounds.contains_cell(stop):
        return ("nopath", "endpoint outside search bounds", 0)
    view = BlockedView(world, bounds)
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


def planned(s, world, bounds=None, margin=10):
    """``plan_segment``'s outcome in ``eager_plan``'s form."""
    try:
        return plan_segment(s, world, bounds=bounds, margin=margin).cells
    except NoPathError as exc:
        return ("nopath", exc.detail, exc.searched)


# -- blocked cells ---------------------------------------------------------------


def test_empty_world_nothing_blocked():
    w = World()
    view = BlockedView(w, BOUNDS)
    assert not any(view.is_blocked((t, 0, 0)) for t in range(4))


def test_guide_outranks_occupy():
    w = World()
    region = box_from_extents(Point3(5, 5, 5), (2, 2, 2))
    w.obstacles.add(region, GUIDE, 3, "other1")
    w.obstacles.add(region, OCCUPY, 1, "other2")
    assert BlockedView(w, BOUNDS).is_blocked((5, 5, 5))


def test_disabled_obstacles_do_not_block():
    w = World()
    obs = w.obstacles.add(box_from_extents(Point3(1, 0, 0), (1, 1, 1)), OCCUPY, 1, "me")
    w.obstacles.disable(obs.oid)
    assert not BlockedView(w, BOUNDS).is_blocked((1, 0, 0))


def test_blocked_view_matches_rasterized_live_boxes():
    """Independent oracle: rasterize the boxes this test keeps live and
    enabled, and compare with the view on every cell of the bounds."""
    rng = random.Random(2024)
    bounds = box_from_extents(Point3(0, 0, 0), (12, 12, 12))
    for trial in range(40):
        w = World()
        live = {}  # id -> box of every solid and every enabled obstacle
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
            obstacles[w.obstacles.add(box, kind, rng.randint(0, 9), "x").oid] = box
        live.update(obstacles)
        for oid, box in obstacles.items():
            roll = rng.random()
            if roll < 0.3:
                w.obstacles.disable(oid)
                del live[oid]
                then = rng.random()
                if then < 0.3:
                    w.obstacles.enable(oid)
                    live[oid] = box
                elif then < 0.5:
                    w.obstacles.remove(oid)
            elif roll < 0.5:
                w.obstacles.remove(oid)
                del live[oid]
        want = set()
        for box in live.values():
            want.update(c for c in box_cells(box) if bounds.contains_cell(c))
        view = BlockedView(w, bounds)
        for cell in box_cells(bounds):
            assert view.is_blocked(cell) == (cell in want), (trial, cell)


# -- plan_segment --------------------------------------------------------------


def test_straight_path_unobstructed():
    w = World()
    path = plan_segment(spec((0, 0, 0), (3, 0, 0)), w, bounds=BOUNDS)
    assert path.cells == ((0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0))


def test_detour_matches_bfs_oracle():
    w = World()
    # slab wall with a single hole far off the straight line
    w.claim("wall", Box3(Point3(5, 0, 0), Point3(6, 20, 19)), "circuit")
    s = spec((0, 3, 3), (12, 3, 3))
    path = plan_segment(s, w, bounds=BOUNDS)
    view = BlockedView(w, BOUNDS)
    want = bfs_length(s.start.as_tuple(), s.stop.as_tuple(), view.is_blocked, BOUNDS)
    assert len(path) == want


def test_walled_off_stop_raises():
    w = World()
    stop = Point3(10, 10, 10)
    for d in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
        cell = stop.shifted(*d)
        w.claim(f"wall{d}", box_from_extents(cell, (1, 1, 1)), "circuit")
    with pytest.raises(NoPathError) as info:
        plan_segment(spec((0, 0, 0), (10, 10, 10)), w, bounds=BOUNDS)
    exc = info.value
    assert exc.bounds == BOUNDS
    # everything in the 20^3 bounds but the stop and its six walls is reachable
    assert exc.searched == 20 ** 3 - 7
    assert str(exc) == (
        "no path for segment connection_c[t] (0, 0, 0)->(10, 10, 10) pi=1 "
        f"searched {20 ** 3 - 7} cells in (0, 0, 0)..(20, 20, 20)"
    )
    with pytest.raises(NoPathError) as info:
        plan_segment(spec((10, 11, 10), (0, 0, 0)), w, bounds=BOUNDS)
    assert info.value.searched == 0 and info.value.bounds == BOUNDS
    assert info.value.detail == "start cell blocked"


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("blocker", ["free", "solid", "obstacle", "disabled-obstacle"])
def test_single_axis_spec_matches_bfs(axis, direction, blocker):
    """Single-axis specs take the straight run when it is free and detour
    around whatever blocks it, always as short as the BFS oracle."""
    start = (10, 10, 10)
    stop = tuple(c + 6 * direction if i == axis else c for i, c in enumerate(start))
    mid = tuple(c + 3 * direction if i == axis else c for i, c in enumerate(start))
    w = World()
    blocked = set()
    if blocker == "solid":
        w.claim("wall", box_from_extents(Point3(*mid), (1, 1, 1)), "circuit")
        blocked.add(mid)
    elif blocker != "free":
        obs = w.obstacles.add(box_from_extents(Point3(*mid), (1, 1, 1)), GUIDE, 0, "other")
        if blocker == "obstacle":
            blocked.add(mid)
        else:
            w.obstacles.disable(obs.oid)
    path = plan_segment(spec(start, stop), w, bounds=BOUNDS)
    assert path.start == start and path.stop == stop
    assert not blocked & set(path.cells)
    for a, b in zip(path.cells, path.cells[1:]):
        assert sum(abs(u - v) for u, v in zip(a, b)) == 1
    assert len(path) == bfs_length(start, stop, blocked.__contains__, BOUNDS)
    if not blocked:
        assert len(path) == 7 and mid in path.cells


def test_zero_length_segment_is_a_single_cell():
    w = World()
    path = plan_segment(spec((4, 4, 4), (4, 4, 4), seg=SEG_E), w, bounds=BOUNDS)
    assert path.cells == ((4, 4, 4),)


def test_random_instances_match_bfs():
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
        free = [cell for cell in itertools.product(range(20), repeat=3) if cell not in solid]
        start, stop = rng.sample(free, 2)
        s = spec(start, stop)
        view = BlockedView(w, BOUNDS)
        want = bfs_length(start, stop, view.is_blocked, BOUNDS)
        assert planned(s, w, BOUNDS) == eager_plan(s, w, BOUNDS), trial
        try:
            path = plan_segment(s, w, bounds=BOUNDS)
        except NoPathError:
            assert want is None
            blocked_agree += 1
            continue
        assert want is not None and len(path) == want
        # path validity: adjacency, no repeats, endpoint match
        assert path.start == start and path.stop == stop
        assert len(set(path.cells)) == len(path.cells)
        for a, b in zip(path.cells, path.cells[1:]):
            assert sum(abs(u - v) for u, v in zip(a, b)) == 1
        solved += 1
    assert solved > 100
    assert solved + blocked_agree == 200


def test_paths_equal_eager_reference_with_guides_and_faces():
    """Against guide obstacles, enabled or disabled, and with endpoints
    on the faces of the search bounds, ``plan_segment`` returns the eager
    reference's cells, or fails with its detail and settled count."""
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
        for _ in range(rng.randint(1, 8)):
            lo = Point3(rng.randint(0, 11), rng.randint(0, 11), rng.randint(0, 11))
            box = box_from_extents(lo, (rng.randint(1, 12), rng.randint(1, 3), rng.randint(1, 12)))
            obs = w.obstacles.add(box, GUIDE, 0, "g")
            if rng.random() < 0.4:
                w.obstacles.disable(obs.oid)
        if rng.random() < 0.5:  # a guide wall across the whole volume
            axis, at = rng.randrange(3), rng.randint(1, 10)
            lo = Point3(*(at if i == axis else -4 for i in range(3)))
            w.obstacles.add(box_from_extents(lo, tuple(1 if i == axis else 20 for i in range(3))),
                            GUIDE, 0, "wall")
        cells = [(rng.randint(0, 11), rng.randint(0, 11), rng.randint(0, 11)) for _ in range(2)]
        start, stop = (rng.choice(faces(c)) for c in cells)
        s = spec(start, stop)
        bounds = box_from_extents(Point3(0, 0, 0), (12, 12, 12))
        got = planned(s, w, bounds)
        assert got == eager_plan(s, w, bounds), trial
        outcomes["path" if got[0] != "nopath" else "exhausted" if got[2] else "refused"] += 1
        margin = rng.randint(0, 3)  # default bounds: both endpoints lie on or near its faces
        envelope = merge_boxes(cell_box(start), cell_box(stop))
        assert default_bounds(s, margin) == envelope.inflated(margin, margin, margin)
        got = planned(s, w, margin=margin)
        assert got == eager_plan(s, w, default_bounds(s, margin)), (trial, margin)
    # found paths, searches that exhaust their bounds and refused endpoints all occur
    assert min(outcomes["path"], outcomes["exhausted"], outcomes["refused"]) >= 5, outcomes


# -- compute_taskset protocol ---------------------------------------------------


def test_single_spec_taskset_equals_plan():
    w1, w2 = World(), World()
    s = spec((0, 0, 0), (6, 0, 0))
    alone = plan_segment(s, w1, bounds=BOUNDS)
    (committed,) = compute_taskset([spec((0, 0, 0), (6, 0, 0))], w2)
    assert committed.cells == alone.cells
    assert alone.polyline is None
    assert polyline_cells(committed.polyline) == set(alone.cells)


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

    white = spec((0, 2, 0), (15, 2, 0), prio=255, owner="white", obstacles=(magenta.oid,))
    grey = spec((0, 5, 0), (15, 5, 0), prio=128, owner="grey", obstacles=(orange.oid,))
    black = spec((5, 0, 0), (5, 7, 0), prio=0, owner="black", obstacles=(yellow.oid,))
    return w, [white, grey, black], (magenta, orange, yellow)


def test_three_connection_scenario_routes_disjoint():
    w, ts, (magenta, orange, yellow) = three_connection_scenario()
    paths = compute_taskset(ts, w, margin=16)
    assert len(paths) == 3
    cells = [set(p.cells) for p in paths]
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
    compute_taskset(ts, w, margin=16)
    enabled = {o.oid for o in enabled_obstacles(w.obstacles)}
    assert magenta.oid in enabled
    assert orange.oid not in enabled and yellow.oid not in enabled


def test_protocol_keeps_obstacles_indexed_and_removes_occupies(monkeypatch):
    w, ts, (magenta, orange, yellow) = three_connection_scenario()
    sizes = []
    for name in ("disable", "enable"):
        def toggle(oid, _orig=getattr(w.obstacles, name)):
            before = len(w.index)
            _orig(oid)
            sizes.append((before, len(w.index)))
        monkeypatch.setattr(w.obstacles, name, toggle)
    compute_taskset(ts, w, margin=16)
    assert len(sizes) == 4  # each spec disables its obstacle; white re-enables its guide
    assert all(before == after for before, after in sizes)
    for occupy in (orange, yellow):
        with pytest.raises(KeyError):
            w.obstacles.get(occupy.oid)
        with pytest.raises(UnknownEntryError):
            w.index.get(occupy.oid)
    assert w.obstacles.get(magenta.oid).enabled
    assert w.index.get(magenta.oid).tag == "obstacle"


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
            obs = w.obstacles.add(
                box_from_extents(lo, (rng.randint(1, 4), rng.randint(1, 4), 1)),
                kind, prio, f"conn{i}",
            )
            own.append(obs.oid)
        specs.append(
            SegmentSpec(Point3(*start), Point3(*stop), tuple(own), prio, SEG_C, f"conn{i}")
        )
    return w, specs


def run_outcome(w, ts):
    try:
        return [p.cells for p in compute_taskset(ts, w, margin=6)]
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
        for cells in out:
            assert seen.isdisjoint(cells)
            seen.update(cells)
