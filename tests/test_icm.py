import random
from collections import Counter

import pytest

from topoasm.icm import (
    ICMCircuit,
    ICMError,
    ICMOp,
    ICMSyntaxError,
    format_icm,
    magic_events,
    parse_icm,
    recycle_wires,
)


# -- parsing ---------------------------------------------------------------


def test_smallest_legal_circuit():
    c = parse_icm("init 0 A\nmeasure 0 X\n")
    assert c.wire_count == 1
    assert [(m.wire, m.timestep, m.basis) for m in c.magic_inputs] == [(0, 0, "A")]


def test_cnot_control_equals_target_is_an_error():
    with pytest.raises(ICMSyntaxError):
        parse_icm("init 0 0\ncnot 0 0\n")


def test_syntax_error_reports_line():
    with pytest.raises(ICMSyntaxError) as err:
        parse_icm("init 0 0\ninit 1 Q\n")
    assert err.value.line == 2


def test_wire_used_before_init():
    with pytest.raises(ICMError):
        parse_icm("init 0 0\ncnot 0 1\n")


def test_measure_before_init():
    with pytest.raises(ICMError):
        parse_icm("measure 0 X\n")


def test_duplicate_op_slot():
    with pytest.raises(ICMError):
        parse_icm("@0 init 0 0\n@0 init 1 0\n@1 cnot 0 1\n@1 measure 0 X\n")


def test_comments_and_dense_timesteps():
    c = parse_icm("# a comment\ninit 0 +\ninit 1 0\ncnot 0 1\nmeasure 0 Z\nmeasure 1 X\n")
    by_kind = {}
    for op in c.ops:
        by_kind.setdefault(op.kind, []).append(op.timestep)
    assert by_kind["init"] == [0, 0]
    assert by_kind["cnot"] == [1]
    assert sorted(by_kind["measure"]) == [2, 2]


def test_format_roundtrip(toffoli):
    again = parse_icm(format_icm(toffoli))
    assert again.wire_count == toffoli.wire_count
    assert again.ops == toffoli.ops


def test_bundled_fixture_counts(toffoli):
    assert toffoli.wire_count == 9
    assert sum(1 for m in toffoli.magic_inputs if m.basis == "A") == 7
    assert sum(1 for m in toffoli.magic_inputs if m.basis == "Y") == 14


# -- recycling ---------------------------------------------------------------


def max_live_lifetimes(circuit):
    """Exhaustive minimal wire count: peak overlap of lifetime intervals."""
    lifetimes = circuit.lifetimes()
    times = sorted({lt.start for lt in lifetimes} | {lt.end for lt in lifetimes if lt.end is not None})
    peak = 0
    for t in times:
        live = sum(
            1
            for lt in lifetimes
            if lt.start <= t and (lt.end is None or t <= lt.end)
        )
        peak = max(peak, live)
    return peak


def test_recycle_disjoint_lifetimes_share_a_wire():
    c = parse_icm("@0 init 0 0\n@2 measure 0 X\n@4 init 1 0\n@6 measure 1 Z\n")
    r = recycle_wires(c)
    assert r.wire_count == 1


def test_recycle_overlapping_lifetimes_unchanged():
    c = parse_icm("@0 init 0 0\n@0 init 1 0\n@5 measure 0 X\n@5 measure 1 Z\n")
    r = recycle_wires(c)
    assert r.wire_count == 2


def test_recycle_strictness_no_same_slot_reuse():
    # measure at t=2 and init at t=2 may not share a wire
    c = parse_icm("@0 init 0 0\n@2 measure 0 X\n@2 init 1 0\n@4 measure 1 Z\n")
    r = recycle_wires(c)
    assert r.wire_count == 2


def test_recycle_unopt_toffoli_to_nine_wires(toffoli_unopt):
    r = recycle_wires(toffoli_unopt)
    assert r.wire_count == 9
    assert r.wire_count == max_live_lifetimes(toffoli_unopt)


def test_recycle_preserves_ops_and_counts(toffoli_unopt):
    r = recycle_wires(toffoli_unopt)
    strip = lambda ops: Counter((op.kind, op.timestep, op.basis) for op in ops)
    assert strip(r.ops) == strip(toffoli_unopt.ops)
    assert len(r.magic_inputs) == len(toffoli_unopt.magic_inputs)
    assert [m.timestep for m in r.magic_inputs] == [m.timestep for m in toffoli_unopt.magic_inputs]


def lifetime_signature_at(circuit, wire, t):
    for lt in circuit.lifetimes():
        if lt.wire == wire and lt.start <= t and (lt.end is None or t <= lt.end):
            return (lt.start, lt.end)
    raise AssertionError(f"no lifetime on wire {wire} at t={t}")


def test_recycle_preserves_cnot_lifetime_pairings(toffoli_unopt):
    r = recycle_wires(toffoli_unopt)

    def pairings(circuit):
        return Counter(
            (
                op.timestep,
                lifetime_signature_at(circuit, op.control, op.timestep),
                lifetime_signature_at(circuit, op.target, op.timestep),
            )
            for op in circuit.cnots()
        )

    assert pairings(r) == pairings(toffoli_unopt)


def test_recycle_soundness_random_circuits():
    rng = random.Random(42)
    for trial in range(40):
        ops = []
        t = 0
        live = []
        wire = 0
        for _ in range(rng.randint(5, 40)):
            roll = rng.random()
            if roll < 0.4 or not live:
                ops.append(ICMOp("init", t, (wire,), rng.choice("0+AY")))
                live.append(wire)
                wire += 1
            elif roll < 0.6 and len(live) >= 2:
                a, b = rng.sample(live, 2)
                ops.append(ICMOp("cnot", t, (a, b)))
            else:
                w = rng.choice(live)
                live.remove(w)
                ops.append(ICMOp("measure", t, (w,), rng.choice("XZ")))
            t += 1
        circuit = ICMCircuit(wire, ops)
        r = recycle_wires(circuit)
        assert r.wire_count <= circuit.wire_count
        assert r.wire_count == max_live_lifetimes(circuit)
        # lifetimes sharing an output wire never overlap (strictly ordered)
        per_wire = {}
        for lt in r.lifetimes():
            per_wire.setdefault(lt.wire, []).append(lt)
        for lts in per_wire.values():
            lts.sort(key=lambda lt: lt.start)
            for a, b in zip(lts, lts[1:]):
                assert a.end is not None and a.end < b.start


# -- demand events (the engine's traversal) ------------------------------------


def _count(inputs, basis):
    return sum(1 for m in inputs if m.basis == basis)


def test_traversal_no_magic_ends_immediately():
    c = parse_icm("@0 init 0 0\n@7 measure 0 X\n")
    assert magic_events(c) == []


def test_traversal_first_event_counts(toffoli):
    _, inputs = magic_events(toffoli)[0]
    assert _count(inputs, "A") == 2 and _count(inputs, "Y") == 1


def test_traversal_partition_and_monotonicity(toffoli):
    events = magic_events(toffoli)
    times = [t for t, _ in events]
    assert all(a < b for a, b in zip(times, times[1:]))
    for t, inputs in events:
        assert inputs and all(m.timestep == t for m in inputs)
        wires = [m.wire for m in inputs]
        assert wires == sorted(set(wires))
    assert [m for _, inputs in events for m in inputs] == list(toffoli.magic_inputs)


def test_traversal_exhaustive_sums(toffoli):
    events = magic_events(toffoli)
    assert sum(_count(inputs, "A") for _, inputs in events) == 7
    assert sum(_count(inputs, "Y") for _, inputs in events) == 14
    assert max(_count(inputs, "A") for _, inputs in events) == 2
    assert max(_count(inputs, "Y") for _, inputs in events) == 2
