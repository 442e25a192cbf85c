import random
from collections import Counter

import pytest

from topoasm.icm import (
    ICMCircuit,
    ICMError,
    ICMOp,
    ICMSyntaxError,
    Lifetime,
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


# One case per error path: (source, line, column, message).  Line and
# column are None for the circuit-level checks, which raise a plain
# ICMError without a position.
PARSE_ERRORS = {
    "bad-timestep-token": ("@x init 0 0\n", 1, 1, "bad timestep token '@x'"),
    "timestep-with-no-op": ("init 0 0\n@3  \n", 2, 4, "timestep with no op"),
    "unknown-op": ("init 0 0\n  swap 0 1\n", 2, 3, "unknown op 'swap'"),
    "init-arity": ("init 0\n", 1, 1, "init expects 2 arguments"),
    "cnot-arity": ("init 0 0\ninit 1 0\ncnot 0\n", 3, 1, "cnot expects 2 arguments"),
    "measure-arity": ("init 0 0\n measure 0 X Z\n", 2, 2, "measure expects 2 arguments"),
    "bad-wire-id": ("init 0 0\ncnot 0 w1\n", 2, 8, "bad wire id 'w1'"),
    "negative-wire-id": ("init -1 0\n", 1, 6, "wire ids are non-negative"),
    "control-equals-target": ("init 0 0\ncnot 0 0\n", 2, 8, "control equals target"),
    "bad-init-basis": ("init 0 0\ninit 1 Q\n", 2, 8, "bad init basis 'Q'"),
    "bad-measure-basis": ("init 0 0\nmeasure 0 Y\n", 2, 11, "bad measure basis 'Y'"),
    # A token that repeats an earlier one on its line is reported at its own column.
    "bad-measure-basis-repeats-wire": ("init 0 0\nmeasure 0 0\n", 2, 11, "bad measure basis '0'"),
    "unknown-op-repeats-timestep": ("@0 0 0 0\n", 1, 4, "unknown op '0'"),
    # Wire ids and timesteps are plain ASCII digits, nothing else int() reads.
    "wire-id-underscore": ("init 1_0 0\n", 1, 6, "bad wire id '1_0'"),
    "wire-id-plus": ("init 0 0\ninit 1 0\ncnot 0 +1\n", 3, 8, "bad wire id '+1'"),
    "wire-id-non-ascii-digit": ("init \u0661 0\n", 1, 6, "bad wire id '\u0661'"),
    "wire-id-negative-zero": ("init -0 0\n", 1, 6, "wire ids are non-negative"),
    "timestep-plus": ("@+3 init 0 0\n", 1, 1, "bad timestep token '@+3'"),
    "timestep-underscore": ("@1_0 init 0 0\n", 1, 1, "bad timestep token '@1_0'"),
    "timestep-space": ("@ 3 init 0 0\n", 1, 1, "bad timestep token '@'"),
    "negative-timestep": ("init 0 0\n@-1 measure 0 X\n", 2, 1, "negative timestep -1"),
    "duplicate-slot": ("@0 init 0 0\n@0 init 0 +\n", None, None, "duplicate op slot on wire 0 at t=0"),
    "re-init": ("init 0 0\ninit 0 +\n", None, None, "wire 0 re-initialised before measurement at t=1"),
    "measure-before-init": ("measure 0 X\n", None, None, "wire 0 measured before init at t=0"),
    "use-before-init": ("init 0 0\ncnot 0 1\n", None, None, "wire 1 used before init at t=1"),
    "no-operations": ("# only a comment\n\n", 1, 1, "no operations"),
    # Slot checks over all ops come before any init/measure order check.
    "slot-check-first": (
        "measure 1 X\n@5 init 0 0\n@5 cnot 0 2\n@5 init 2 0\n",
        None, None, "duplicate op slot on wire 0 at t=5",
    ),
    # Order checks visit wires in first-appearance order, not by id.
    "first-appearing-wire-first": (
        "@3 init 0 0\n@0 init 1 0\n@1 init 1 0\n@2 measure 0 X\n",
        None, None, "wire 1 re-initialised before measurement at t=1",
    ),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_parse_error_messages_and_positions(case):
    text, line, column, message = PARSE_ERRORS[case]
    with pytest.raises(ICMError) as err:
        parse_icm(text)
    if line is None:
        assert type(err.value) is ICMError
        assert str(err.value) == message
    else:
        assert isinstance(err.value, ICMSyntaxError)
        assert (err.value.line, err.value.column) == (line, column)
        assert str(err.value) == f"line {line}, column {column}: {message}"


@pytest.mark.parametrize(
    "wire_count, ops, message",
    [
        (1, [ICMOp("init", 0, (1,), "0")], "wire 1 out of range (wire_count=1)"),
        (0, [], "wire_count must be positive"),
        (-2, [ICMOp("init", 0, (0,), "0")], "wire_count must be positive"),
    ],
)
def test_circuit_constructor_errors(wire_count, ops, message):
    with pytest.raises(ICMError) as err:
        ICMCircuit(wire_count, ops)
    assert type(err.value) is ICMError
    assert str(err.value) == message


def random_icm_source(rng, stats):
    """A valid ICM source text with idle wires, lifetimes left open, and a
    mix of explicit and implicit timesteps; ``stats`` counts each."""
    wires = rng.randint(2, 7)
    idle = set(rng.sample(range(wires - 1), rng.randint(0, 1)))  # never the top wire
    live: set[int] = set()
    used: set[int] = set()
    next_free = dict.fromkeys(range(wires), 0)
    lines = []
    for _ in range(rng.randint(1, 30)):
        roll = rng.random()
        free = [w for w in range(wires) if w not in live and w not in idle]
        if free and (roll < 0.35 or not live):
            kind, ws, basis = "init", (rng.choice(free),), rng.choice("0+AY")
            live.add(ws[0])
        elif roll < 0.7 and len(live) >= 2:
            kind, ws, basis = "cnot", tuple(rng.sample(sorted(live), 2)), None
        else:
            kind, ws, basis = "measure", (rng.choice(sorted(live)),), rng.choice("XZ")
            live.discard(ws[0])
        t = max(next_free[w] for w in ws)
        prefix = ""
        if rng.random() < 0.5:
            t += rng.randint(0, 3)
            prefix = f"@{t} "
            stats["explicit"] += 1
        else:
            stats["implicit"] += 1
        for w in ws:
            next_free[w] = t + 1
        used.update(ws)
        lines.append(f"{prefix}{kind} " + " ".join(map(str, ws + ((basis,) if basis else ()))))
    stats["idle"] += sum(1 for w in idle if w < max(used))
    stats["open"] += bool(live)
    return "\n".join(lines) + "\n"


def reference_lifetimes(circuit):
    """Lifetimes recomputed from ``circuit.ops``, wire by wire."""
    out = []
    for w in range(circuit.wire_count):
        ops = [op for op in circuit.ops if w in op.wires]
        if not ops:
            out.append(Lifetime(w, 0, None, False))
            continue
        starts = [i for i, op in enumerate(ops) if op.kind == "init"]
        for a, b in zip(starts, starts[1:] + [len(ops)]):
            chunk = tuple(ops[a:b])
            end = chunk[-1].timestep if chunk[-1].kind == "measure" else None
            out.append(Lifetime(w, chunk[0].timestep, end, chunk[0].basis in ("A", "Y"), chunk))
    return sorted(out, key=lambda lt: (lt.start, lt.wire))


def test_lifetimes_match_reference_on_random_circuits():
    rng = random.Random(2017)
    stats = Counter()
    for _ in range(300):
        text = random_icm_source(rng, stats)
        c = parse_icm(text)
        assert list(c.lifetimes()) == reference_lifetimes(c), text
        assert [(m.wire, m.timestep, m.basis) for m in c.magic_inputs] == sorted(
            ((op.wire, op.timestep, op.basis) for op in c.ops
             if op.kind == "init" and op.basis in ("A", "Y")),
            key=lambda m: (m[1], m[0]),
        )
        assert parse_icm(format_icm(c)).ops == c.ops
    assert min(stats[k] for k in ("explicit", "implicit", "idle", "open")) >= 20, stats


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


def test_recycled_unopt_toffoli_is_the_toffoli(toffoli, toffoli_unopt):
    """Recycling the 24-wire fixture gives the 9-wire one, ops and wire
    count, and leaves the 9-wire one as it is, so with recycling on both
    fixtures synthesize the same circuit: the CLI tests run the Toffoli
    alone."""
    for circuit in (toffoli_unopt, toffoli):
        r = recycle_wires(circuit)
        assert (r.ops, r.wire_count) == (toffoli.ops, toffoli.wire_count)


def test_recycle_preserves_ops_and_counts(toffoli_unopt):
    r = recycle_wires(toffoli_unopt)
    strip = lambda ops: Counter((op.kind, op.timestep, op.basis) for op in ops)
    assert strip(r.ops) == strip(toffoli_unopt.ops)
    assert len(r.magic_inputs) == len(toffoli_unopt.magic_inputs)
    assert [m.timestep for m in r.magic_inputs] == [m.timestep for m in toffoli_unopt.magic_inputs]


def lowest_input_wires(circuit, recycled):
    """Per output wire of ``recycled``, the lowest wire of ``circuit`` it carries."""
    lowest = {}
    for a, b in zip(circuit.ops, recycled.ops):
        for w_in, w_out in zip(a.wires, b.wires):
            lowest[w_out] = min(lowest.get(w_out, w_in), w_in)
    return [lowest[w] for w in sorted(lowest)]


def test_recycle_numbers_wires_by_their_lowest_input_wire(toffoli):
    """Output wires are numbered by the lowest input wire among the
    lifetimes each carries.  On two Toffolis side by side, numbering them
    by start time interleaved the copies' wires (the two wires 0 and n
    start together), so a CNOT's template spanned the other copy's rows."""
    n = toffoli.wire_count
    shifted = [ICMOp(op.kind, op.timestep, tuple(w + n for w in op.wires), op.basis)
               for op in toffoli.ops]
    pair = ICMCircuit(2 * n, list(toffoli.ops) + shifted)
    r = recycle_wires(pair)
    assert r.wire_count == 2 * n
    lowest = lowest_input_wires(pair, r)
    assert lowest == sorted(lowest) and lowest[:2] == [0, 1]


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
        lowest = lowest_input_wires(circuit, r)
        assert lowest == sorted(lowest) and len(lowest) == r.wire_count
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
