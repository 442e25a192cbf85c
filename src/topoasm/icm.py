"""ICM circuit model, text format, wire recycling, and demand events.

An ICM circuit consists solely of single-qubit initialisations, CNOTs
and single-qubit measurements.  Initialisation bases are ``0``, ``+``,
``A`` or ``Y``; the latter two are magic states that must be delivered
by distillation.  Grouped by timestep into demand events
(:func:`magic_events`), they drive the whole online synthesis.

Text format (UTF-8, line oriented, ``#`` comments)::

    [@<timestep>] init <wire> <0|+|A|Y>
    [@<timestep>] cnot <control> <target>
    [@<timestep>] measure <wire> <X|Z>

When the ``@<timestep>`` token is absent, timesteps are assigned
densely per wire in file order: an op lands on the earliest slot after
everything already placed on its wire(s).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

INIT = "init"
CNOT = "cnot"
MEASURE = "measure"

INIT_BASES = ("0", "+", "A", "Y")
MEASURE_BASES = ("X", "Z")
MAGIC_BASES = ("A", "Y")


class ICMError(Exception):
    pass


class ICMSyntaxError(ICMError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class ICMOp:
    kind: str
    timestep: int
    wires: tuple[int, ...]
    basis: str | None = None

    def __post_init__(self) -> None:
        if self.timestep < 0:
            raise ICMError(f"negative timestep {self.timestep}")
        if any(w < 0 for w in self.wires):
            raise ICMError(f"negative wire id in {self.wires}")
        if self.kind == CNOT:
            if len(self.wires) != 2 or self.wires[0] == self.wires[1]:
                raise ICMError(f"cnot needs two distinct wires, got {self.wires}")
            if self.basis is not None:
                raise ICMError("cnot carries no basis")
        elif self.kind == INIT:
            if len(self.wires) != 1 or self.basis not in INIT_BASES:
                raise ICMError(f"bad init: wires={self.wires} basis={self.basis}")
        elif self.kind == MEASURE:
            if len(self.wires) != 1 or self.basis not in MEASURE_BASES:
                raise ICMError(f"bad measure: wires={self.wires} basis={self.basis}")
        else:
            raise ICMError(f"unknown op kind {self.kind!r}")

    @property
    def wire(self) -> int:
        return self.wires[0]

    @property
    def control(self) -> int:
        return self.wires[0]

    @property
    def target(self) -> int:
        return self.wires[1]


@dataclass(frozen=True)
class MagicInput:
    wire: int
    timestep: int
    basis: str  # "A" | "Y"

    @property
    def key(self) -> str:
        return f"w{self.wire}@t{self.timestep}"


@dataclass(frozen=True)
class Lifetime:
    """One init..measure interval on a wire; ``end`` is None for circuit outputs."""

    wire: int
    start: int
    end: int | None
    magic: bool
    ops: tuple[ICMOp, ...] = ()


class ICMCircuit:
    """Validated ICM circuit with timestep-ordered ops."""

    def __init__(self, wire_count: int, ops):
        if wire_count <= 0:
            raise ICMError("wire_count must be positive")
        self.wire_count = wire_count
        self.ops = sorted(ops, key=lambda op: op.timestep)
        self._validate()
        self.magic_inputs: tuple[MagicInput, ...] = tuple(
            MagicInput(op.wire, op.timestep, op.basis)
            for op in sorted(
                (o for o in self.ops if o.kind == INIT and o.basis in MAGIC_BASES),
                key=lambda o: (o.timestep, o.wire),
            )
        )

    def _validate(self) -> None:
        per_wire: dict[int, list[ICMOp]] = {}
        slots = set()
        for op in self.ops:
            for w in op.wires:
                if w >= self.wire_count:
                    raise ICMError(f"wire {w} out of range (wire_count={self.wire_count})")
                if (w, op.timestep) in slots:
                    raise ICMError(f"duplicate op slot on wire {w} at t={op.timestep}")
                slots.add((w, op.timestep))
                per_wire.setdefault(w, []).append(op)
        for w, ops in per_wire.items():
            open_ = False
            for op in ops:
                if op.kind == INIT:
                    if open_:
                        raise ICMError(f"wire {w} re-initialised before measurement at t={op.timestep}")
                    open_ = True
                elif op.kind == MEASURE:
                    if not open_:
                        raise ICMError(f"wire {w} measured before init at t={op.timestep}")
                    open_ = False
                else:
                    if not open_:
                        raise ICMError(f"wire {w} used before init at t={op.timestep}")

    def cnots(self):
        return [op for op in self.ops if op.kind == CNOT]

    @property
    def last_timestep(self) -> int:
        return max((op.timestep for op in self.ops), default=0)

    def lifetimes(self) -> list[Lifetime]:
        """Init..measure intervals per wire, in (start, wire) order.

        A wire carrying no ops at all idles for the whole circuit and is
        reported as one open lifetime starting at t=0.
        """
        out = []
        per_wire: dict[int, list[ICMOp]] = {}
        for op in self.ops:
            for w in op.wires:
                per_wire.setdefault(w, []).append(op)
        for w in range(self.wire_count):
            if w not in per_wire:
                out.append(Lifetime(w, 0, None, False))
                continue
            start = None
            magic = False
            acc: list[ICMOp] = []
            for op in per_wire[w]:
                if op.kind == INIT:
                    start = op.timestep
                    magic = op.basis in MAGIC_BASES
                    acc = [op]
                elif op.kind == MEASURE:
                    acc.append(op)
                    out.append(Lifetime(w, start, op.timestep, magic, tuple(acc)))
                    start = None
                else:
                    acc.append(op)
            if start is not None:
                out.append(Lifetime(w, start, None, magic, tuple(acc)))
        out.sort(key=lambda lt: (lt.start, lt.wire))
        return out


def parse_icm(text: str) -> ICMCircuit:
    """Parse the line-oriented ICM source format."""
    ops = []
    next_free: dict[int, int] = {}

    def fresh_slot(wires) -> int:
        t = max(next_free.get(w, 0) for w in wires)
        for w in wires:
            next_free[w] = t + 1
        return t

    def note_explicit(wires, t) -> None:
        for w in wires:
            next_free[w] = max(next_free.get(w, 0), t + 1)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        timestep = None
        if tokens[0].startswith("@"):
            try:
                timestep = int(tokens[0][1:])
            except ValueError:
                raise ICMSyntaxError(lineno, 1, f"bad timestep token {tokens[0]!r}")
            tokens = tokens[1:]
            if not tokens:
                raise ICMSyntaxError(lineno, len(raw), "timestep with no op")
        word = tokens[0]

        def want(n: int):
            if len(tokens) != n + 1:
                raise ICMSyntaxError(lineno, raw.find(word) + 1, f"{word} expects {n} arguments")

        def wire_arg(i: int) -> int:
            try:
                v = int(tokens[i])
            except ValueError:
                raise ICMSyntaxError(lineno, raw.find(tokens[i]) + 1, f"bad wire id {tokens[i]!r}")
            if v < 0:
                raise ICMSyntaxError(lineno, raw.find(tokens[i]) + 1, "wire ids are non-negative")
            return v

        try:
            if word == INIT:
                want(2)
                w = wire_arg(1)
                basis = tokens[2]
                if basis not in INIT_BASES:
                    raise ICMSyntaxError(lineno, raw.find(basis) + 1, f"bad init basis {basis!r}")
                t = timestep if timestep is not None else fresh_slot([w])
                if timestep is not None:
                    note_explicit([w], t)
                ops.append(ICMOp(INIT, t, (w,), basis))
            elif word == CNOT:
                want(2)
                c, x = wire_arg(1), wire_arg(2)
                if c == x:
                    raise ICMSyntaxError(lineno, raw.find(tokens[2]) + 1, "control equals target")
                t = timestep if timestep is not None else fresh_slot([c, x])
                if timestep is not None:
                    note_explicit([c, x], t)
                ops.append(ICMOp(CNOT, t, (c, x)))
            elif word == MEASURE:
                want(2)
                w = wire_arg(1)
                basis = tokens[2]
                if basis not in MEASURE_BASES:
                    raise ICMSyntaxError(lineno, raw.find(basis) + 1, f"bad measure basis {basis!r}")
                t = timestep if timestep is not None else fresh_slot([w])
                if timestep is not None:
                    note_explicit([w], t)
                ops.append(ICMOp(MEASURE, t, (w,), basis))
            else:
                raise ICMSyntaxError(lineno, raw.find(word) + 1, f"unknown op {word!r}")
        except ICMError as exc:
            if isinstance(exc, ICMSyntaxError):
                raise
            raise ICMSyntaxError(lineno, 1, str(exc)) from None

    if not ops:
        raise ICMSyntaxError(1, 1, "no operations")
    wire_count = max(max(op.wires) for op in ops) + 1
    return ICMCircuit(wire_count, ops)


def format_icm(circuit: ICMCircuit) -> str:
    """Serialize a circuit back to the text format with explicit timesteps."""
    lines = []
    for op in circuit.ops:
        if op.kind == INIT:
            lines.append(f"@{op.timestep} init {op.wire} {op.basis}")
        elif op.kind == CNOT:
            lines.append(f"@{op.timestep} cnot {op.control} {op.target}")
        else:
            lines.append(f"@{op.timestep} measure {op.wire} {op.basis}")
    return "\n".join(lines) + "\n"


def recycle_wires(circuit: ICMCircuit) -> ICMCircuit:
    """Share wires between non-overlapping qubit lifetimes.

    Greedy first-fit over lifetimes in init-time order: a lifetime may
    reuse a wire whose previous occupant was measured strictly before
    the new initialisation.  On interval structures this is a minimal
    colouring, so the result never uses more wires than necessary.  The
    op multiset and all timesteps are unchanged; only wire names move.
    """
    lifetimes = circuit.lifetimes()
    wire_free_at: list[int | None] = []  # per output wire: first reusable timestep
    assignment: dict[int, int] = {}  # lifetime index -> output wire
    for i, lt in enumerate(lifetimes):
        placed = None
        for w, free_at in enumerate(wire_free_at):
            if free_at is not None and free_at < lt.start:
                placed = w
                break
        if placed is None:
            wire_free_at.append(None)
            placed = len(wire_free_at) - 1
        assignment[i] = placed
        wire_free_at[placed] = lt.end if lt.end is not None else None

    # Map each (wire, timestep) op slot to its output wire.
    slot_map: dict[tuple[int, int], int] = {}
    for i, lt in enumerate(lifetimes):
        for op in lt.ops:
            for w in op.wires:
                if w == lt.wire:
                    slot_map[(w, op.timestep)] = assignment[i]

    new_ops = []
    for op in circuit.ops:
        wires = tuple(slot_map[(w, op.timestep)] for w in op.wires)
        new_ops.append(replace(op, wires=wires))
    new_count = max(len(wire_free_at), 1)
    return ICMCircuit(new_count, new_ops)


def magic_events(circuit: ICMCircuit) -> list[tuple[int, tuple[MagicInput, ...]]]:
    """The circuit's demand events: ``(timestep, inputs)`` for every
    timestep that initialises magic states, with all of its magic inputs.

    Times strictly increase, and each event's inputs are in wire order,
    since ``circuit.magic_inputs`` is sorted by timestep, then wire.
    """
    return [
        (t, tuple(inputs))
        for t, inputs in itertools.groupby(circuit.magic_inputs, key=lambda m: m.timestep)
    ]
