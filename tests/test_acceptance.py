"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line when its assertions hold, so a
verbose run doubles as the acceptance report.  Shared synthesis runs
are cached per session; their wall time is charged to every criterion
that consumes them.
"""

import itertools
import random
import statistics
import time
from collections import Counter

from topoasm import fixtures
from topoasm.cli import export_stats, main
from topoasm.engine import synthesize
from topoasm.geom import Point3, box_from_extents
from topoasm.icm import magic_events, parse_icm
from topoasm.route import (
    GUIDE,
    BlockedView,
    NoPathError,
    Obstacle,
    RouteError,
    World,
    compute_taskset,
    default_bounds,
    plan_segment,
)
from topoasm.sched import required_round_size

import test_pool
import test_route
import test_sched
from conftest import (
    assert_pool_journal,
    box_cells,
    enabled_obstacles,
    polyline_cells,
    polyline_from_cells,
    scripted_config,
    solid_cells,
)


def report(n, message):
    print(f"CRITERION {n} PASS: {message}")


def test_criterion_1_fixture_counts():
    t0 = time.monotonic()
    circuit = parse_icm(fixtures.toffoli_text())
    assert circuit.wire_count == 9
    a = sum(1 for m in circuit.magic_inputs if m.basis == "A")
    y = sum(1 for m in circuit.magic_inputs if m.basis == "Y")
    assert (a, y) == (7, 14)

    # Demand events merged with the bundled condition's round firings:
    # the cadence anchors at the first demand and each firing strictly
    # between demand timesteps contributes its own zero-demand step.
    events = magic_events(circuit)
    times = [t for t, _ in events]
    period = fixtures.TOFFOLI_CONDITION[1]
    firings = list(range(times[0], times[-1] + 1, period))
    standalone = [t for t in firings if t not in times]
    steps = len(events) + len(standalone)
    assert steps == 21
    assert max(sum(m.basis == "A" for m in inputs) for _, inputs in events) == 2
    assert max(sum(m.basis == "Y" for m in inputs) for _, inputs in events) == 2
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, f"9 wires, 7 A, 14 Y, {steps} steps, demand maxima 2/2 ({elapsed:.2f}s)")


def test_criterion_2_round_sizing():
    t0 = time.monotonic()
    assert required_round_size(2, 0.5, 0.999) == 14
    checked = 0
    for k in range(1, 6):
        for p_fail in (0.0, 0.2, 0.5, 0.8):
            for conf in (0.9, 0.99, 0.999):
                try:
                    want = test_sched.oracle_round_size(k, p_fail, conf, n_max=64)
                except AssertionError:
                    continue  # answer outside the n <= 64 verification domain
                assert required_round_size(k, p_fail, conf) == want
                checked += 1
    elapsed = time.monotonic() - t0
    assert checked >= 50
    assert elapsed < 1.0
    report(2, f"size(2, 0.5, 0.999)=14; {checked} oracle matches with n<=64 ({elapsed:.2f}s)")


def test_criterion_3_trace_table(toffoli, tmp_path):
    t0 = time.monotonic()
    assembly = synthesize(toffoli, scripted_config())
    stats = tmp_path / "stats.csv"
    export_stats(assembly, stats)
    lines = stats.read_text().splitlines()
    rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("volume,")]
    assert len(rows) == 21
    nr_a = [int(r[1]) for r in rows]
    nr_y = [int(r[2]) for r in rows]
    pools = [(int(r[3]), int(r[4])) for r in rows]
    sched = [int(r[5]) for r in rows]
    assert sum(nr_a) == 7 and sum(nr_y) == 14
    assert sum(sched) == 5
    assert all(0 <= a <= 10 and 0 <= y <= 10 for a, y in pools)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(3, f"21 rows, sums 7/14, 5 rounds, pools within [0,10] ({elapsed:.2f}s)")


def test_criterion_4_volume_ordering(seed_sweep):
    med = {
        kind: statistics.median(a.volume for a in seed_sweep[kind])
        for kind in ("spiral", "alap", "asap")
    }
    assert med["spiral"] < med["alap"] < med["asap"]
    reduction = 100.0 * (1.0 - med["spiral"] / med["alap"])
    assert 15.0 <= reduction <= 45.0
    assert seed_sweep["elapsed"] < 120.0
    report(
        4,
        "median volumes {spiral:.0f} < {alap:.0f} < {asap:.0f}, "
        "spiral {red:.1f}% below alap ({t:.1f}s shared)".format(
            red=reduction, t=seed_sweep["elapsed"], **med
        ),
    )


def test_criterion_5_router_optimality():
    t0 = time.monotonic()
    rng = random.Random(4242)
    solved = agreed_nopath = 0
    for trial in range(200):
        w = World()
        taken = set()  # every cell the index holds: claimed boxes and the obstacle
        for i in range(rng.randint(3, 16)):
            lo = Point3(rng.randint(0, 17), rng.randint(0, 17), rng.randint(0, 17))
            box = box_from_extents(lo, (rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)))
            try:
                w.claim(f"o{i}", box, "circuit")
            except RouteError:
                continue
            taken.update(box_cells(box))
        if rng.random() < 0.5:
            lo = Point3(rng.randint(0, 14), rng.randint(0, 14), rng.randint(0, 14))
            kind = "guide" if rng.random() < 0.5 else "occupy"
            box = box_from_extents(lo, (3, 3, 3))
            w.obstacles.add(box, kind, rng.randint(1, 9), "x")
            taken.update(box_cells(box))
        # endpoints in the middle of the world keep their search box within 33^3
        free = [cell for cell in itertools.product(range(4, 16), repeat=3) if cell not in taken]
        start, stop = rng.sample(free, 2)
        if trial % 8 == 0:
            # wall the stop into a sealed shell so the instance is infeasible
            shell = [
                (stop[0] + d[0], stop[1] + d[1], stop[2] + d[2])
                for d in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
            ]
            start = rng.choice([c for c in free if c != stop and c not in shell])
            for i, cell in enumerate(shell):
                try:
                    w.claim(f"shell{i}", box_from_extents(Point3(*cell), (1, 1, 1)), "circuit")
                except Exception:
                    pass
        s = test_route.spec(start, stop)
        bounds = default_bounds(s)
        view = BlockedView(w, bounds, ())
        want = test_route.bfs_length(start, stop, view.is_blocked, bounds)
        try:
            path = plan_segment(s, w)
        except NoPathError:
            assert want is None
            agreed_nopath += 1
        else:
            # the polyline of the eager reference's cells, as short as BFS's
            cells = test_route.eager_plan(s, w)
            assert path == polyline_from_cells(cells, "primal", s.segment_class)
            assert want == len(path) == len(cells)
            solved += 1
    elapsed = time.monotonic() - t0
    assert solved + agreed_nopath == 200
    assert elapsed < 30.0
    report(5, f"200 instances: {solved} optimal, {agreed_nopath} agreed NoPath ({elapsed:.1f}s)")


def test_criterion_6_spatial_equivalence():
    t0 = time.monotonic()
    rng = random.Random(777)
    from topoasm.spatial import BoxIndex

    idx = BoxIndex()
    entries = []
    for i in range(1000):
        e = Obstacle(f"e{i}", GUIDE, _random_index_box(rng))
        idx.insert(e)
        entries.append(e)
    for _ in range(100):
        probe = _random_index_box(rng, max_ext=16)
        assert idx.hits(probe) == {x.id for x in entries if x.box.intersects(probe)}
    # interleaved script
    idx2 = BoxIndex()
    live = {}
    for n in range(500):
        if rng.random() < 0.6 or not live:
            e = Obstacle(f"s{n}", GUIDE, _random_index_box(rng))
            idx2.insert(e)
            live[e.id] = e
        else:
            victim = rng.choice(sorted(live))
            idx2.remove(victim)
            del live[victim]
    for _ in range(60):
        probe = _random_index_box(rng, max_ext=16)
        assert idx2.hits(probe) == {x.id for x in live.values() if x.box.intersects(probe)}
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(6, f"1000 boxes x 100 probes and a 500-op script match brute force ({elapsed:.1f}s)")


def _random_index_box(rng, max_ext=8):
    lo = Point3(rng.randint(-50, 50), rng.randint(-50, 50), rng.randint(-50, 50))
    return box_from_extents(
        lo, (rng.randint(1, max_ext), rng.randint(1, max_ext), rng.randint(1, max_ext))
    )


def test_criterion_7_obstacle_protocol():
    t0 = time.monotonic()
    w, ts, (magenta, orange, yellow) = test_route.three_connection_scenario()
    paths = compute_taskset(ts, w)
    cells = [polyline_cells(p) for p in paths]
    assert cells[0].isdisjoint(cells[1])
    assert cells[0].isdisjoint(cells[2])
    assert cells[1].isdisjoint(cells[2])
    assert len(paths[2]) == 8  # the lowest-priority connection stays direct
    enabled = {o.id for o in enabled_obstacles(w.obstacles)}
    assert magenta in enabled
    assert orange not in enabled and yellow not in enabled

    rng = random.Random(808)
    for trial in range(50):
        n = rng.randint(2, 5)
        base = sorted(rng.sample(range(1, 300), n), reverse=True)
        seed = rng.randint(0, 10**6)
        w1, ts1 = test_route.random_taskset(random.Random(seed), base)
        w2, ts2 = test_route.random_taskset(random.Random(seed), [5 * p + 2 for p in base])
        assert test_route.run_outcome(w1, ts1) == test_route.run_outcome(w2, ts2)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(7, f"scenario disjoint, guides-only after pass, 50 relabelings stable ({elapsed:.1f}s)")


def test_criterion_8_state_machine_conservation():
    t0 = time.monotonic()
    for seed in range(1000):
        pool = test_pool.random_pool_script(seed, steps=30)
        for holders in pool.rails:
            spans = sorted((c.anchor_t, c.extended_to) for c in holders)
            for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
                assert b1 < a2
        assert_pool_journal(pool)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(8, f"1000 scripts: legal edges, exclusive rails, conserved counts ({elapsed:.1f}s)")


def test_criterion_9_non_overlap_and_completeness(toffoli, seed_sweep):
    t0 = time.monotonic()
    runs = 0
    for kind in ("spiral", "alap", "asap"):
        for assembly in seed_sweep[kind]:
            counts = Counter()
            for cell, _ in solid_cells(assembly.geometry):
                counts[cell] += 1
            assert not [c for c, n in counts.items() if n > 1]
            assert set(assembly.deliveries) == {m.key for m in toffoli.magic_inputs}
            pins = dict(assembly.geometry.pins)
            for key, (cid, poly) in assembly.deliveries.items():
                assert poly.vertices[-1] == pins[key]
            runs += 1
    elapsed = time.monotonic() - t0
    assert seed_sweep["elapsed"] + elapsed < 120.0
    report(9, f"{runs} assemblies rasterize cleanly, 21/21 inputs delivered each ({elapsed:.1f}s)")


def test_criterion_10_determinism(tmp_path):
    t0 = time.monotonic()
    circuit_path = fixtures.fixture_path("toffoli.icm")

    def run(tag):
        out = {
            "geom": tmp_path / f"g{tag}",
            "stats": tmp_path / f"s{tag}",
            "journal": tmp_path / f"j{tag}",
        }
        code = main(
            [
                "--circuit", str(circuit_path),
                "--seed", "2024",
                "--export-geometry", str(out["geom"]),
                "--export-stats", str(out["stats"]),
                "--journal", str(out["journal"]),
            ]
        )
        assert code == 0
        return {k: p.read_bytes() for k, p in out.items()}

    assert run("a") == run("b")
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(10, f"geometry, stats and journal byte-identical across reruns ({elapsed:.1f}s)")
