import random
from collections import Counter

import pytest

from topoasm.icm import (
    ICMCircuit,
    ICMError,
    ICMOp,
    ICMSyntaxError,
    format_icm,
    new_traversal_state,
    next_traversal_event,
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


# -- traversal ---------------------------------------------------------------


def drive_traversal(circuit):
    state = new_traversal_state(circuit)
    events = []
    while True:
        ev = next_traversal_event(state)
        if ev.is_end:
            return events, ev, state
        events.append(ev)
        # stand in for the engine: handle the pending inputs immediately
        batch = list(state.in_b)
        state.mark_assigned(batch)
        state.mark_connected(batch)


def _count(ev, basis):
    return sum(1 for m in ev.inputs if m.basis == basis)


def test_traversal_no_magic_ends_immediately():
    c = parse_icm("@0 init 0 0\n@7 measure 0 X\n")
    events, end, _ = drive_traversal(c)
    assert events == []
    assert end.is_end


def test_traversal_first_event_counts(toffoli):
    state = new_traversal_state(toffoli)
    ev = next_traversal_event(state)
    assert _count(ev, "A") == 2 and _count(ev, "Y") == 1


def test_traversal_partition_and_monotonicity(toffoli):
    state = new_traversal_state(toffoli)
    seen = []
    last_time = -1
    while True:
        ev = next_traversal_event(state)
        if ev.is_end:
            break
        assert ev.time > last_time
        last_time = ev.time
        groups = [state.in_a, state.in_c, state.in_b, set(state.in_f)]
        union = set().union(*groups)
        assert sum(len(g) for g in groups) == len(union) == len(toffoli.magic_inputs)
        assert all(m.timestep <= ev.time for m in state.in_a | state.in_c)
        assert all(m.timestep > ev.time for m in state.in_f)
        seen.extend(ev.inputs)
        batch = list(state.in_b)
        state.mark_assigned(batch)
        state.mark_connected(batch)
    assert Counter(seen) == Counter(toffoli.magic_inputs)


def test_traversal_exhaustive_sums(toffoli):
    events, _, _ = drive_traversal(toffoli)
    assert sum(_count(ev, "A") for ev in events) == 7
    assert sum(_count(ev, "Y") for ev in events) == 14
    assert max(_count(ev, "A") for ev in events) == 2
    assert max(_count(ev, "Y") for ev in events) == 2


def test_traversal_refuses_pending_inputs(toffoli):
    state = new_traversal_state(toffoli)
    next_traversal_event(state)
    with pytest.raises(ICMError):
        next_traversal_event(state)
