import random
from collections import deque

import pytest

from topoasm.geom import Box3, Point3, box_from_extents
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
    TaskSet,
    World,
    compute_taskset,
    plan_segment,
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
            if nb in seen or not bounds.contains_cell(nb) or blocked(nb):
                continue
            seen.add(nb)
            q.append((nb, n + 1))
    return None


def spec(start, stop, prio=1, seg=SEG_C, owner="t", obstacles=()):
    return SegmentSpec(Point3(*start), Point3(*stop), tuple(obstacles), prio, seg, owner)


# -- blocked cells and the governing rule --------------------------------------


def test_empty_world_nothing_blocked():
    w = World()
    view = BlockedView(w, BOUNDS)
    assert not any(view.is_blocked((t, 0, 0)) for t in range(4))
    assert w.obstacles.governing((1, 0, 0)) is None


def test_guide_outranks_occupy():
    w = World()
    region = box_from_extents(Point3(5, 5, 5), (2, 2, 2))
    w.obstacles.add(region, GUIDE, 3, "other1")
    w.obstacles.add(region, OCCUPY, 1, "other2")
    gov = w.obstacles.governing((5, 5, 5))
    assert gov.kind == GUIDE and gov.priority == 3
    assert BlockedView(w, BOUNDS).is_blocked((5, 5, 5))


def test_lower_priority_number_governs_among_occupies():
    w = World()
    region = box_from_extents(Point3(2, 2, 2), (3, 3, 3))
    w.obstacles.add(region, OCCUPY, 128, "grey")
    w.obstacles.add(region.translated(1, 1, 1), OCCUPY, 0, "black")
    gov = w.obstacles.governing((4, 4, 4))  # covered by both
    assert gov.priority == 0 and gov.owner == "black"


def test_disabled_obstacles_do_not_block():
    w = World()
    obs = w.obstacles.add(box_from_extents(Point3(1, 0, 0), (1, 1, 1)), OCCUPY, 1, "me")
    w.obstacles.disable(obs.oid)
    assert not BlockedView(w, BOUNDS).is_blocked((1, 0, 0))
    assert w.obstacles.governing((1, 0, 0)) is None


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
    with pytest.raises(NoPathError):
        plan_segment(spec((0, 0, 0), (10, 10, 10)), w, bounds=BOUNDS)


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
        for i in range(rng.randint(2, 14)):
            lo = Point3(rng.randint(0, 16), rng.randint(0, 16), rng.randint(0, 16))
            ext = (rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5))
            try:
                w.claim(f"o{i}", box_from_extents(lo, ext), "circuit")
            except RouteError:
                pass  # overlapping random solids: skip, coverage is what matters
        free = [
            (t, x, y)
            for t in range(20)
            for x in range(20)
            for y in range(20)
            if not w.solid_hits(box_from_extents(Point3(t, x, y), (1, 1, 1)))
        ]
        start, stop = rng.sample(free, 2)
        s = spec(start, stop)
        view = BlockedView(w, BOUNDS)
        want = bfs_length(start, stop, view.is_blocked, BOUNDS)
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


# -- compute_taskset protocol ---------------------------------------------------


def test_single_spec_taskset_equals_plan():
    w1, w2 = World(), World()
    s = spec((0, 0, 0), (6, 0, 0))
    alone = plan_segment(s, w1, bounds=BOUNDS)
    (committed,) = compute_taskset(TaskSet([spec((0, 0, 0), (6, 0, 0))]), w2)
    assert committed.cells == alone.cells


def test_taskset_requires_distinct_priorities():
    ts = TaskSet([spec((0, 0, 0), (2, 0, 0), prio=1), spec((0, 5, 0), (2, 5, 0), prio=1)])
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
    return w, TaskSet([white, grey, black]), (magenta, orange, yellow)


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
    enabled = {o.oid for o in w.obstacles.enabled_obstacles()}
    assert magenta.oid in enabled
    assert orange.oid not in enabled and yellow.oid not in enabled


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
    return w, TaskSet(specs)


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
