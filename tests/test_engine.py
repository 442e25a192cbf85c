from collections import Counter

import pytest

from topoasm import fixtures
from topoasm.engine import (
    EngineError,
    OutcomeSource,
    SynthesisConfig,
    SynthesisFailure,
    Synthesizer,
    simulate_round,
    synthesize,
)
from topoasm.geom import global_bounding_box, plumbing_volume
from topoasm.icm import magic_events, parse_icm
from topoasm.pool import AVAILABLE, ASSIGNED, RESERVED, TOBEAVAILABLE, PoolConfig
from topoasm.sched import DistillationLayer, SchedulerPolicy

from conftest import (
    box_cells,
    conservation_holds,
    journal_ops,
    polyline_cells,
    scripted_config,
    solid_cells,
)
from test_geom import _sequential_chain


# -- outcome simulation -------------------------------------------------------


class _FakeBox:
    def __init__(self, i, kind):
        self.box_id = f"b{i}"
        self.kind = kind
        self.port = None


def fake_layer(n):
    layer = DistillationLayer(1, 0)
    layer.boxes = [_FakeBox(i, "A" if i % 2 else "Y") for i in range(n)]
    return layer


def test_simulate_p_fail_zero_all_succeed():
    src = OutcomeSource(0.0, seed=5)
    got = simulate_round(fake_layer(20), src)
    assert len(got) == 20


def test_simulate_scripted_bitmap():
    src = OutcomeSource(0.5, seed=0, script=["10110"])
    got = simulate_round(fake_layer(5), src)
    assert [g[0] for g in got] == ["b0", "b2", "b3"]


def test_simulate_script_exhausted():
    src = OutcomeSource(0.5, seed=0, script=["11"])
    simulate_round(fake_layer(2), src)
    with pytest.raises(EngineError):
        simulate_round(fake_layer(2), src)


def test_simulate_bad_bitmap_length():
    src = OutcomeSource(0.5, seed=0, script=["111"])
    with pytest.raises(EngineError):
        simulate_round(fake_layer(2), src)


def test_simulate_success_fraction_within_3_sigma():
    src = OutcomeSource(0.5, seed=1234)
    n = 10_000
    wins = len(simulate_round(fake_layer(n), src))
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
    for key, (cid, path) in scripted_assembly.deliveries.items():
        assert path.stop == pins[key].as_tuple()


def test_every_reservation_gets_a_box_link(toffoli):
    s = Synthesizer(toffoli, scripted_config())
    asm = s.run()
    reserved = sum(s.pool.offered[k] - s.pool.discarded[k] for k in "AY")
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
    assert conservation_holds(s.pool)
    for cid, a, b in s.pool.transitions:
        assert (a, b) in {
            (AVAILABLE, RESERVED),
            (RESERVED, ASSIGNED),
            (ASSIGNED, TOBEAVAILABLE),
            (TOBEAVAILABLE, AVAILABLE),
        }


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
    claimed in the index, rail extensions included, each cell once."""
    if kind == "scripted":
        cfg = scripted_config()
    else:
        cfg = SynthesisConfig(policy=SchedulerPolicy(kind=kind))
    s = Synthesizer(toffoli, cfg)
    asm = s.run()
    index = s.world.index
    claimed = Counter(
        cell
        for eid in index.hits(global_bounding_box(asm.geometry), tags=("connection",))
        for cell in box_cells(index.get(eid).box)
    )
    drawn = Counter(
        cell
        for d in asm.geometry.defects if d.role.startswith("connection_")
        for cell in polyline_cells(d)
    )
    assert claimed and max(claimed.values()) == 1 and max(drawn.values()) == 1
    assert claimed == drawn


@pytest.mark.parametrize("kind", ["spiral", "alap"])
def test_event_demand_above_pool_cap_fails_before_any_round(kind):
    circuit = parse_icm("@0 init 0 A\n@0 init 1 A\n@2 cnot 0 1\n@5 measure 0 X\n@6 measure 1 Z\n")
    cfg = SynthesisConfig(policy=SchedulerPolicy(kind=kind), pool=PoolConfig(cap_per_type=1))
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
