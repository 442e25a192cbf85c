import random
from collections import Counter

import pytest

from topoasm import engine, fixtures, route, sched
from topoasm.engine import (
    EngineError,
    OutcomeSource,
    SynthesisConfig,
    SynthesisFailure,
    Synthesizer,
    read_outcome_script,
    synthesize,
)
from topoasm.geom import (
    Box3,
    Point3,
    cell_box,
    global_bounding_box,
    plumbing_volume,
)
from topoasm.icm import magic_events, parse_icm
from topoasm.pool import POOL_GAP
from topoasm.route import World
from topoasm.sched import SchedulerPolicy
from topoasm.spatial import BoxIndex, UnknownEntryError

from conftest import (
    EVERYWHERE,
    JOURNAL_LINE,
    assert_pool_journal,
    box_cells,
    contains_cell,
    journal_claims,
    journal_ops,
    obstacle_records,
    polyline_cells,
    polyline_from_cells,
    pool_lifecycle,
    scripted_config,
    solid_cells,
)
from test_geom import _sequential_chain


# -- outcome simulation -------------------------------------------------------


def test_simulate_p_fail_zero_all_succeed():
    src = OutcomeSource(0.0, seed=5)
    got = src.draw(20)
    assert sum(got) == 20


def test_simulate_scripted_bitmap():
    src = OutcomeSource(0.5, seed=0, script=["10110"])
    got = src.draw(5)
    assert [i for i, ok in enumerate(got) if ok] == [0, 2, 3]


def test_simulate_script_exhausted():
    src = OutcomeSource(0.5, seed=0, script=["11"])
    src.draw(2)
    with pytest.raises(EngineError):
        src.draw(2)


def test_simulate_bad_bitmap_length():
    src = OutcomeSource(0.5, seed=0, script=["111"])
    with pytest.raises(EngineError):
        src.draw(2)


def test_outcome_script_skips_blank_and_comment_lines():
    text = "# header\n  # indented comment\n\n 1011 \n10 11\n"
    assert read_outcome_script(text) == ("1011", "10 11")
    assert len(fixtures.toffoli_outcome_script()) == 5  # one line per scripted round


def test_simulate_success_fraction_within_3_sigma():
    src = OutcomeSource(0.5, seed=1234)
    n = 10_000
    wins = sum(src.draw(n))
    sigma = (n * 0.25) ** 0.5
    assert abs(wins - n / 2) <= 3 * sigma


# -- whole-circuit synthesis -----------------------------------------------------


def test_zero_magic_circuit():
    circuit = parse_icm("@0 init 0 0\n@0 init 1 +\n@3 cnot 0 1\n@8 measure 0 X\n@9 measure 1 Z\n")
    asm = synthesize(circuit, SynthesisConfig())
    assert asm.layers == []
    assert asm.records == []
    assert asm.deliveries == {}
    assert asm.volume == plumbing_volume(global_bounding_box(asm.geometry))


def test_scripted_toffoli_trace_shape(scripted_assembly):
    records = scripted_assembly.records
    assert len(records) == 21
    assert sum(r.nr_a for r in records) == 7
    assert sum(r.nr_y for r in records) == 14
    assert sum(r.sched_round for r in records) == 5
    assert max(r.nr_a for r in records) == 2
    assert max(r.nr_y for r in records) == 2
    assert all(0 <= r.a_pool <= 10 and 0 <= r.y_pool <= 10 for r in records)
    assert len(scripted_assembly.layers) == 5
    first = records[0]
    assert (first.nr_a, first.nr_y, first.a_pool, first.y_pool, first.sched_round) == (2, 1, 6, 6, 1)


def test_scripted_toffoli_all_inputs_delivered(toffoli, scripted_assembly):
    assert set(scripted_assembly.deliveries) == {m.key for m in toffoli.magic_inputs}
    pins = dict(scripted_assembly.geometry.pins)
    for key, (cid, poly) in scripted_assembly.deliveries.items():
        assert poly.vertices[-1] == pins[key]


def test_every_reservation_gets_a_box_link(toffoli):
    s = Synthesizer(toffoli, scripted_config())
    asm = s.run()
    reserved = len(pool_lifecycle(s.journal)[0])  # one reserve line per connection
    links = sum(1 for d in asm.geometry.defects if d.role == "connection_b")
    assert links == reserved
    drops = sum(1 for d in asm.geometry.defects if d.role == "connection_c")
    assert drops == 21


def test_scripted_toffoli_no_cell_claimed_twice(scripted_assembly):
    counts = Counter()
    for cell, owner in solid_cells(scripted_assembly.geometry):
        counts[cell] += 1
    assert not [c for c, n in counts.items() if n > 1]


def test_determinism_identical_assemblies(toffoli):
    a = synthesize(toffoli, scripted_config())
    b = synthesize(toffoli, scripted_config())
    assert a.volume == b.volume
    assert a.journal.lines == b.journal.lines
    assert [r.__dict__ for r in a.records] == [r.__dict__ for r in b.records]
    assert [d.vertices for d in a.geometry.defects] == [d.vertices for d in b.geometry.defects]


def test_rng_determinism(toffoli):
    cfg = SynthesisConfig(seed=1337)
    a = synthesize(toffoli, cfg)
    b = synthesize(toffoli, cfg)
    assert a.journal.lines == b.journal.lines
    assert synthesize(toffoli, SynthesisConfig(seed=7)).journal.lines != a.journal.lines


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"segment_order": "bce"}, "segment_order must be 'cbe' or 'ceb'"),
        ({"max_rounds": 0}, "max_rounds must be at least 1"),
        ({"pool_cap": 0}, "pool_cap must be at least 1"),
        ({"policy": SchedulerPolicy(condition=("pool", 11))}, r"pool threshold must lie in \[0, 10\]"),
    ],
    ids=["segment-order", "max-rounds", "pool-cap", "pool-threshold-above-cap"],
)
def test_config_rejects_bad_values(kwargs, message):
    """The library checks what the CLI checks, with no parser in front."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        SynthesisConfig(**kwargs)


WORKFLOW = [
    "round", "simulate", "reserve", "geometry", "assign",
    "spec-c", "mark-tobeavailable", "spec-e", "spec-b",
    "obstacle-add", "path", "sweep-available", "record",
]


def test_journal_follows_workflow_order(scripted_assembly):
    """Per step, the first occurrences of the listing's ops appear in
    the listing's order."""
    rank = {op: i for i, op in enumerate(WORKFLOW)}
    journal = scripted_assembly.journal
    for step in range(1, 22):
        ops = [op for op in journal_ops(journal, step) if op in rank]
        firsts = {}
        for i, op in enumerate(ops):
            firsts.setdefault(op, i)
        ordered = sorted(firsts, key=firsts.get)
        assert ordered == sorted(ordered, key=rank.get), f"step {step}: {ordered}"


def test_each_step_emits_geometry_up_to_the_event_after_its_pending_one(
    toffoli, scripted_assembly
):
    """A step handles the earliest pending demand event, or is a standalone
    round before it; either way its geometry frontier is the time of the
    event after that one, or the circuit's end."""
    times = [t for t, _ in magic_events(toffoli)]
    step_time, frontier = {}, {}
    for line in scripted_assembly.journal.lines:
        step, op, *args = line.split()
        if op == "step-begin":
            step_time[step] = int(args[0])
        elif op == "geometry" and step in step_time:
            frontier[step] = int(args[0])
    standalone = 0
    for step, t in step_time.items():
        later = [u for u in times if u >= t]
        standalone += later[0] != t
        want = later[1] if len(later) > 1 else toffoli.last_timestep + 1
        assert frontier[step] == want, f"step {step} at t={t}"
    assert len(step_time) == 21 and standalone > 0


def test_journal_spec_lines_present(scripted_assembly):
    text = scripted_assembly.journal.text()
    assert "spec-c" in text and "spec-e" in text and "spec-b" in text
    assert "obstacle-off" in text and "obstacle-on" in text
    assert text.endswith(f"volume {scripted_assembly.volume}\n")


def test_pool_conservation_after_synthesis(toffoli):
    s = Synthesizer(toffoli, scripted_config())
    s.run()
    assert_pool_journal(s.pool)


@pytest.mark.parametrize("order", ["cbe", "ceb"])
@pytest.mark.parametrize("kind", ["spiral", "alap", "asap"])
@pytest.mark.parametrize("fixture", ["toffoli", "toffoli_unopt"])
def test_pool_journal_holds_under_every_scheduler_and_order(request, fixture, kind, order):
    """The journal check of the scripted run, on both fixtures under each
    scheduler and segment order, with the default outcome draws."""
    cfg = SynthesisConfig(policy=SchedulerPolicy(kind=kind), segment_order=order)
    s = Synthesizer(request.getfixturevalue(fixture), cfg)
    s.run()
    assert_pool_journal(s.pool)
    assert s.pool.rails


def test_strict_mode_fails_without_proactive_rounds(toffoli):
    cfg = scripted_config(strict=True)
    with pytest.raises(SynthesisFailure) as err:
        synthesize(toffoli, cfg)
    assert err.value.journal.lines


def test_strict_mode_with_pool_condition_succeeds(toffoli):
    cfg = SynthesisConfig(
        policy=SchedulerPolicy(kind="spiral", condition=("pool", 3)),
        seed=11,
        strict=True,
    )
    asm = synthesize(toffoli, cfg)
    assert len(asm.deliveries) == 21


def test_max_rounds_bound(toffoli):
    cfg = SynthesisConfig(
        policy=SchedulerPolicy(kind="spiral", p_fail=0.98),
        seed=3,
        max_rounds=4,
    )
    with pytest.raises(SynthesisFailure):
        synthesize(toffoli, cfg)


@pytest.mark.parametrize("kind", ["spiral", "alap"])
def test_default_round_bound_grows_with_the_circuit(toffoli, kind):
    """A 10-Toffoli chain needs more than 64 rounds; by default the bound is
    max(64, 2 * magic timesteps + 16), which is 376 here."""
    chain = _sequential_chain(toffoli, 10)
    assert len({m.timestep for m in chain.magic_inputs}) == 180
    s = Synthesizer(chain, SynthesisConfig(policy=SchedulerPolicy(kind=kind)))
    asm = s.run()
    assert len(asm.layers) > 64
    assert s.max_rounds == 376
    assert len(asm.deliveries) == len(chain.magic_inputs)


def test_round_bound_failure_names_rounds_and_reservations(toffoli):
    chain = _sequential_chain(toffoli, 10)
    cfg = SynthesisConfig(policy=SchedulerPolicy(kind="alap"), max_rounds=64)
    with pytest.raises(
        SynthesisFailure,
        match=r"^exceeded max_rounds=64: 64 rounds fired, \d+ A and \d+ Y reserved at t=\d+$",
    ):
        synthesize(chain, cfg)


@pytest.mark.parametrize("kind", ["scripted", "spiral", "alap", "asap"])
def test_connection_geometry_equals_index_claims(toffoli, kind):
    """The connection polylines cover exactly the cells their commits
    claimed, as the journal's ``claim connection`` lines record them, rail
    extensions included, each cell once, and the index holds each solid."""
    if kind == "scripted":
        cfg = scripted_config()
    else:
        cfg = SynthesisConfig(policy=SchedulerPolicy(kind=kind))
    s = Synthesizer(toffoli, cfg)
    asm = s.run()
    claimed = Counter(
        cell
        for tag, _, box in journal_claims(s.journal) if tag == "connection"
        for cell in box_cells(box)
    )
    drawn = Counter(
        cell
        for d in asm.geometry.defects if d.role.startswith("connection_")
        for cell in polyline_cells(d)
    )
    assert claimed and max(claimed.values()) == 1 and max(drawn.values()) == 1
    assert claimed == drawn
    assert not any(s.world.is_free(cell_box(cell)) for cell in claimed)
    # one record per obstacle: the registry hands out the index's entry,
    # solids keep none, and a removed id is unknown to both
    records = obstacle_records(s.world.obstacles)
    live = [(oid, obs) for oid, obs in records if obs is not None]
    assert all(obs is s.world.index.get(oid) for oid, obs in live)
    assert len(live) == len(s.world.index) < len(records)
    removed = next(oid for oid, obs in records if obs is None)
    with pytest.raises(UnknownEntryError):
        s.world.obstacles.get(removed)


@pytest.mark.parametrize("kind", ["spiral", "alap"])
def test_event_demand_above_pool_cap_fails_before_any_round(kind):
    circuit = parse_icm("@0 init 0 A\n@0 init 1 A\n@2 cnot 0 1\n@5 measure 0 X\n@6 measure 1 Z\n")
    cfg = SynthesisConfig(policy=SchedulerPolicy(kind=kind), pool_cap=1)
    with pytest.raises(SynthesisFailure, match="t=0 needs 2 A states, above the pool cap of 1"):
        synthesize(circuit, cfg)


def test_outcome_script_must_cover_rounds(toffoli):
    cfg = scripted_config(outcome_script=fixtures.toffoli_outcome_script()[:2])
    with pytest.raises(EngineError):
        synthesize(toffoli, cfg)


def random_icm_circuit(rng):
    from topoasm.icm import ICMCircuit, ICMOp

    ops = []
    t = 0
    live = []
    wire = 0
    magic = 0
    for _ in range(rng.randint(8, 40)):
        roll = rng.random()
        if roll < 0.35 or not live:
            basis = rng.choice("0+AY") if magic < 6 else rng.choice("0+")
            if basis in "AY":
                magic += 1
            ops.append(ICMOp("init", t, (wire,), basis))
            live.append(wire)
            wire += 1
        elif roll < 0.6 and len(live) >= 2:
            a, b = rng.sample(live, 2)
            ops.append(ICMOp("cnot", t, (a, b)))
        else:
            w = rng.choice(live)
            live.remove(w)
            ops.append(ICMOp("measure", t, (w,), rng.choice("XZ")))
        t += rng.randint(1, 3)
    return ICMCircuit(max(wire, 1), ops)


@pytest.mark.parametrize("seed", range(12))
def test_random_circuits_synthesize_soundly(seed):
    """Dense random circuits either synthesize to a clean assembly or fail
    with a diagnosable SynthesisFailure (never a bare crash or a broken
    assembly)."""
    import random as _random

    from topoasm.icm import recycle_wires

    rng = _random.Random(seed * 131 + 17)
    circuit = random_icm_circuit(rng)
    expected = {m.key for m in recycle_wires(circuit).magic_inputs}
    cfg = SynthesisConfig(seed=seed)
    try:
        asm = synthesize(circuit, cfg)
    except SynthesisFailure as exc:
        assert exc.journal.lines  # diagnosable
        return
    counts = Counter()
    for cell, _ in solid_cells(asm.geometry):
        counts[cell] += 1
    assert not [c for c, n in counts.items() if n > 1]
    assert set(asm.deliveries) == expected


def test_journal_claim_ids_are_unique(toffoli, toffoli_unopt):
    """The index keeps no entry for a solid, so no duplicate-id check
    guards solid ids: they are unique by construction.  Every ``claim`` id
    in the journal is distinct on both fixtures under each scheduler and
    the scripted config, and on random circuits (seeds 0-19, recycling on
    and off), a failed run's journal read up to its failure."""
    import random as _random

    runs = [(toffoli, scripted_config())] + [
        (circuit, SynthesisConfig(policy=SchedulerPolicy(kind=kind)))
        for circuit in (toffoli, toffoli_unopt) for kind in ("spiral", "alap", "asap")
    ] + [
        (random_icm_circuit(_random.Random(seed * 131 + 17)),
         SynthesisConfig(seed=seed, optimize_wires=recycle))
        for seed in range(20) for recycle in (True, False)
    ]
    claims = failed = 0
    for circuit, cfg in runs:
        try:
            journal = synthesize(circuit, cfg).journal
        except SynthesisFailure as exc:
            journal, failed = exc.journal, failed + 1
        ids = [eid for _, eid, _ in journal_claims(journal)]
        assert len(set(ids)) == len(ids), [eid for eid, n in Counter(ids).items() if n > 1]
        claims += len(ids)
    assert claims > 10000 and failed


def test_journal_lines_have_one_space_between_non_empty_fields(toffoli, toffoli_unopt):
    """Each call site formats its own line and nothing strips it, so every
    line of these journals is a step, an op and non-empty fields split by
    single spaces: both fixtures under each scheduler, the scripted config
    and a failed run's journal, which ends in a free-text
    ``template-collision`` line.  A ``simulate`` line's bits are never
    empty: asap and the reactive backstop fire only while some demand
    exceeds the reserved count, alap only on a step that has inputs, and
    spiral sizes by the largest step demand seen, at least 1 from step 1
    (an event) on; ``required_round_size`` never returns less than its
    demand.  The ``simulate r`` line that follows each ``round r n_a n_y``
    after its box claims has ``n_a + n_y >= 1`` bits."""
    runs = [(toffoli, scripted_config())] + [
        (circuit, SynthesisConfig(policy=SchedulerPolicy(kind=kind)))
        for circuit in (toffoli, toffoli_unopt) for kind in ("spiral", "alap", "asap")
    ]
    journals = [synthesize(circuit, cfg).journal for circuit, cfg in runs]
    with pytest.raises(SynthesisFailure) as info:
        synthesize(random_icm_circuit(random.Random(11 * 131 + 17)), SynthesisConfig(seed=11))
    journals.append(info.value.journal)
    assert info.value.journal.lines[-1].split()[1] == "template-collision"
    rounds = 0
    for journal in journals:
        for line in journal.lines:
            assert JOURNAL_LINE.match(line), repr(line)
            _, op, *args = line.split(" ")
            if op == "round":
                r, size = args[0], int(args[2]) + int(args[3])
            elif op == "simulate":
                assert args[0] == r and len(args) == 2 and len(args[1]) == size >= 1
                rounds += 1
    assert rounds > 50


# -- rail runs -------------------------------------------------------------------


def test_solid_on_a_rail_run_fails_with_the_journal(toffoli):
    """A rail run is claimed straight, never detoured, and turns solid when
    its rail is flushed: a solid on it ends synthesis at that flush with a
    SynthesisFailure naming the overlap under the stretch's first run.
    c29 is still reserved after the last step, so its stretch, logged
    from step 17 to step 21, is flushed at the end, in step 22."""
    s = Synthesizer(toffoli, scripted_config())
    # rail 0's line at t=75, inside the run connection_e.c29 claims at step 21
    s.world.claim("blocker", cell_box(Point3(75, 1, POOL_GAP)), "circuit")
    with pytest.raises(SynthesisFailure,
                       match=r"^claim connection_e\.c29\.c204\.0 overlaps \['blocker'\]$") as info:
        s.run()
    assert info.value.journal is s.journal
    runs = [(ln.split()[0], eid, box.lo.t, box.hi.t) for ln, (_, eid, box)
            in zip([ln for ln in s.journal.lines if ln.split()[1] == "claim"],
                   journal_claims(s.journal)) if eid.startswith("connection_e.c29.")]
    assert runs[0] == ("17", "connection_e.c29.c204.0", 58, 60)
    assert runs[-1] == ("21", "connection_e.c29.c277.0", 72, 81)
    assert len(s.records) == 21 and s.journal.lines[-1] == "22 geometry 81"
    assert s.world.pending[1, POOL_GAP][:2] == [58, 81]
    assert "no-path" not in journal_ops(s.journal, 21) + journal_ops(s.journal, 22)


def test_solid_on_a_wire_corridor_fails_with_the_journal(toffoli):
    """A clash while the circuit is emitted ends synthesis with a
    SynthesisFailure, as a clash of any other claim does: wire 0's
    corridor meets the blocker when step 5 emits geometry up to t=24."""
    s = Synthesizer(toffoli, SynthesisConfig())
    s.world.claim("blocker", cell_box(Point3(20, 0, 0)), "circuit")
    with pytest.raises(SynthesisFailure,
                       match=r"^claim wire0\.0#43 overlaps \['blocker'\]$") as info:
        s.run()
    assert info.value.journal is s.journal
    assert s.journal.lines[-1] == "5 geometry 24"


def test_placement_fault_fails_with_the_journal(toffoli, monkeypatch):
    monkeypatch.setattr(sched, "MAX_RINGS", 0)
    s = Synthesizer(toffoli, SynthesisConfig())
    with pytest.raises(SynthesisFailure,
                       match=r"^placement failed: spiral exhausted 0 rings around ") as info:
        s.run()
    assert info.value.journal is s.journal
    assert s.journal.lines[-1].split()[1] == "round"


def test_every_rail_run_is_the_path_a_search_finds(toffoli, toffoli_unopt, monkeypatch):
    """Oracle for the straight, lazy claim, over both fixtures under each
    scheduler and segment order, and random circuits (under ``ceb``, alap
    and asap search links on rails whose runs the step just logged):

    * just before each rail run is claimed, no obstacle is switched off
      (so logging the run's switches without making them is exact), and
      A* on the same world, given the equivalent ``connection_e`` spec,
      which exempts the run's own obstacles, returns the polyline of
      exactly the cells of the straight run that is claimed;
    * each flush inserts one box, the union of the ``claim`` boxes the
      journal logged for that rail's runs since its last flush, and a
      flush of a rail with none logged inserts nothing;
    * no ``World.is_free`` or ``BoxIndex.solid_rows`` probe meets a
      pending stretch, the logged runs not yet flushed;
    * at every ``plan_segment``, each pending cell inside the search
      bounds lies in an enabled obstacle the spec does not own, box links
      searched while their own rail has pending runs included (over a
      hundred of them);
    * no run is pending once its connection's ``sweep-available`` line
      is logged, and none at the end."""
    claim, plan, flush = engine.claim_run, route.plan_segment, route.World.flush
    insert_solid, solid_rows, is_free = BoxIndex.insert_solid, BoxIndex.solid_rows, World.is_free
    checked = []
    worlds = {}  # id(world.index) -> world
    runs = {}  # (id(world), x, y) -> (id, box) of each run logged since the rail's last flush
    swept = {}  # id(world) -> the connections swept so far
    read = Counter()  # id(world) -> journal lines folded into runs and swept
    inserted = []
    seen = Counter()

    def pending(world):
        """Fold the run claims and sweeps logged since the last look into
        ``runs`` and ``swept``, and return the boxes of ``world``'s runs
        not yet flushed."""
        worlds[id(world.index)] = world
        lines = world.journal.lines
        for ln in lines[read[id(world)]:]:
            _, op, *args = ln.split()
            if op == "claim" and args[1].startswith(route.SEG_E + "."):
                c = [int(v) for v in args[2:]]
                runs.setdefault((id(world), c[1], c[2]), []).append(
                    (args[1], Box3(Point3(*c[:3]), Point3(*c[3:]))))
            elif op == "sweep-available":
                swept.setdefault(id(world), set()).add(args[0])
        read[id(world)] = len(lines)
        mine = [run for (wid, _, _), rs in runs.items() if wid == id(world) for run in rs]
        return [box for _, box in mine]

    def settled(world):
        """``pending(world)``, once no pending run's connection is swept
        (``connection_e.<connection>.c<seq>.0``): its sweep flushed it."""
        boxes = pending(world)
        gone = swept.get(id(world), set())
        assert not [eid for (wid, _, _), rs in runs.items() if wid == id(world)
                    for eid, _ in rs if eid.split(".")[1] in gone]
        return boxes

    def checked_claim(world, owner, first, last, x, y, obstacles):
        settled(world)
        registry = world.obstacles
        spec = route.SegmentSpec(
            Point3(first, x, y), Point3(last, x, y), obstacles, 0, route.SEG_E, owner,
        )
        live = map(registry.get, world.index.hits(EVERYWHERE))
        assert all(obs.enabled for obs in live), route.describe_spec(spec)
        found = plan(spec, world)
        run = [(t, x, y) for t in range(first, last + 1)]
        assert found == polyline_from_cells(run, "primal", route.SEG_E), route.describe_spec(spec)
        assert len(found) == len(run)
        checked.append(spec)
        return claim(world, owner, first, last, x, y, obstacles)

    def checked_flush(world, x, y):
        pending(world)
        logged = sorted(box for _, box in runs.pop((id(world), x, y), []))
        inserted.clear()
        flush(world, x, y)
        if logged:
            assert all(a.hi.t == b.lo.t for a, b in zip(logged, logged[1:])), logged
            assert inserted == [Box3(logged[0].lo, logged[-1].hi)], (x, y, logged)
            seen["merged runs"] += len(logged)
            seen["flushes"] += 1
        else:
            assert not inserted, (x, y)

    def recorded_insert(index, box):
        inserted.append(box)
        return insert_solid(index, box)

    def checked_rows(index, slab):
        world = worlds.get(id(index))
        if world is not None:  # else no run was claimed in its world yet
            assert not [b for b in settled(world) if b.intersects(slab)], slab
            seen["probes"] += 1
        return solid_rows(index, slab)

    def checked_free(world, box):
        assert not [b for b in settled(world) if b.intersects(box)], box
        return is_free(world, box)

    def checked_plan(spec, world):
        bounds = route.default_bounds(spec)
        cells = [cell for b in settled(world) if b.intersects(bounds)
                 for cell in box_cells(b) if contains_cell(bounds, cell)]
        if spec.segment_class == route.SEG_B:
            seen["links"] += 1
            if runs.get((id(world), spec.stop.x, spec.stop.y)):
                seen["links over runs"] += 1
        if cells:
            registry = world.obstacles
            fences = [obs.box for obs in map(registry.get, world.index.hits(bounds))
                      if obs.enabled and obs.id not in spec.obstacles]
            for cell in cells:
                assert any(contains_cell(f, cell) for f in fences), (route.describe_spec(spec), cell)
            seen["fenced cells"] += len(cells)
        return plan(spec, world)

    monkeypatch.setattr(engine, "claim_run", checked_claim)
    monkeypatch.setattr(route.World, "flush", checked_flush)
    monkeypatch.setattr(route.World, "is_free", checked_free)
    monkeypatch.setattr(BoxIndex, "insert_solid", recorded_insert)
    monkeypatch.setattr(BoxIndex, "solid_rows", checked_rows)
    monkeypatch.setattr(route, "plan_segment", checked_plan)

    def run(circuit, cfg):
        s = Synthesizer(circuit, cfg)
        s.run()
        assert not s.world.pending and not settled(s.world)
        seen["swept"] += len(swept[id(s.world)])

    for circuit in (toffoli, toffoli_unopt):
        for kind in ("spiral", "alap", "asap"):
            for order in ("cbe", "ceb"):
                cfg = SynthesisConfig(policy=SchedulerPolicy(kind=kind), segment_order=order)
                run(circuit, cfg)
    for seed in range(6):
        circuit = random_icm_circuit(random.Random(seed * 131 + 17))
        for optimize in (True, False):
            run(circuit, SynthesisConfig(seed=seed, optimize_wires=optimize))
    assert len(checked) > 4000
    assert seen["merged runs"] > seen["flushes"] > 100, seen
    assert seen["probes"] > 1000 and seen["fenced cells"] > 1000, seen
    assert seen["links"] > 600 and seen["swept"] > 250, seen
    assert seen["links over runs"] > 100, seen


def test_alternate_segment_compute_order(toffoli):
    # the c,e,b variant of the compute order must also synthesize cleanly
    asm = synthesize(toffoli, scripted_config(segment_order="ceb"))
    assert len(asm.deliveries) == 21
    counts = Counter()
    for cell, _ in solid_cells(asm.geometry):
        counts[cell] += 1
    assert not [c for c, n in counts.items() if n > 1]


def test_baselines_complete_and_shape(toffoli):
    asap = synthesize(toffoli, SynthesisConfig(policy=SchedulerPolicy(kind="asap"), seed=5))
    circuit_start = 0
    for box in asap.geometry.boxes:
        assert box.footprint.hi.t <= circuit_start
    assert len(asap.deliveries) == 21

    alap = synthesize(toffoli, SynthesisConfig(policy=SchedulerPolicy(kind="alap"), seed=5))
    demand_times = {}
    for layer in alap.layers:
        assert all(b.footprint.hi.t <= layer.trigger_time + 8 for b in layer.boxes)
    assert len(alap.layers) == 18  # one layer per demand event
    assert len(alap.deliveries) == 21
