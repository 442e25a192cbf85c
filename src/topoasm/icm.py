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

Wire ids and timesteps are unsigned decimal integers (``[0-9]+``).
When the ``@<timestep>`` token is absent, timesteps are assigned
densely per wire in file order: an op lands on the earliest slot after
everything already placed on its wire(s).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, replace

INIT = "init"
CNOT = "cnot"
MEASURE = "measure"

INIT_BASES = ("0", "+", "A", "Y")
MEASURE_BASES = ("X", "Z")
MAGIC_BASES = ("A", "Y")
OP_BASES = {INIT: INIT_BASES, CNOT: None, MEASURE: MEASURE_BASES}  # kind -> basis set
_NEGATIVE = re.compile(r"-[0-9]+")  # a signed wire id or timestep, reported as negative


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
    """Validated ICM circuit with timestep-ordered ops and per-wire lifetimes."""

    def __init__(self, wire_count: int, ops):
        if wire_count <= 0:
            raise ICMError("wire_count must be positive")
        self.wire_count = wire_count
        self.ops = sorted(ops, key=lambda op: op.timestep)
        per_wire: dict[int, list[ICMOp]] = {}  # in first-appearance order
        for op in self.ops:
            for w in op.wires:
                if w >= wire_count:
                    raise ICMError(f"wire {w} out of range (wire_count={wire_count})")
                on_wire = per_wire.setdefault(w, [])
                if on_wire and on_wire[-1].timestep == op.timestep:
                    raise ICMError(f"duplicate op slot on wire {w} at t={op.timestep}")
                on_wire.append(op)
        lifetimes = [Lifetime(w, 0, None, False) for w in range(wire_count) if w not in per_wire]
        for w, on_wire in per_wire.items():
            acc: list[ICMOp] = []  # the open lifetime's ops; empty between lifetimes
            for op in on_wire:
                if op.kind == INIT:
                    if acc:
                        raise ICMError(f"wire {w} re-initialised before measurement at t={op.timestep}")
                elif not acc:
                    verb = "measured" if op.kind == MEASURE else "used"
                    raise ICMError(f"wire {w} {verb} before init at t={op.timestep}")
                acc.append(op)
                if op.kind == MEASURE:
                    lifetimes.append(_lifetime(w, acc, op.timestep))
                    acc = []
            if acc:
                lifetimes.append(_lifetime(w, acc, None))
        lifetimes.sort(key=lambda lt: (lt.start, lt.wire))
        self._lifetimes = tuple(lifetimes)
        self.magic_inputs: tuple[MagicInput, ...] = tuple(
            MagicInput(lt.wire, lt.start, lt.ops[0].basis) for lt in lifetimes if lt.magic
        )

    def cnots(self):
        return [op for op in self.ops if op.kind == CNOT]

    @property
    def last_timestep(self) -> int:
        return max((op.timestep for op in self.ops), default=0)

    def lifetimes(self) -> tuple[Lifetime, ...]:
        """Init..measure intervals per wire, in (start, wire) order.

        A wire carrying no ops at all idles for the whole circuit and is
        reported as one open lifetime starting at t=0.
        """
        return self._lifetimes


def _lifetime(wire: int, ops: list[ICMOp], end: int | None) -> Lifetime:
    return Lifetime(wire, ops[0].timestep, end, ops[0].basis in MAGIC_BASES, tuple(ops))


def parse_icm(text: str) -> ICMCircuit:
    """Parse the line-oriented ICM source format."""
    ops = []
    next_free: dict[int, int] = {}

    def slot(wires, timestep) -> int:
        """The op's timestep: ``timestep``, or the earliest slot after
        everything already placed on its wires when it is None."""
        t = max(next_free.get(w, 0) for w in wires) if timestep is None else timestep
        for w in wires:
            next_free[w] = max(next_free.get(w, 0), t + 1)
        return t

    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        tokens = code.split()
        if not tokens:
            continue
        first = 0  # index of the op word among the line's tokens

        def fail(i: int, message: str):
            """Raise at the column of ``tokens[i]``."""
            starts = [m.start() for m in re.finditer(r"\S+", code)]
            raise ICMSyntaxError(lineno, starts[first + i] + 1, message)

        timestep = None
        if tokens[0].startswith("@"):
            stamp = tokens[0][1:]
            if not (stamp.isascii() and stamp.isdigit()):
                fail(0, f"negative timestep {stamp}" if _NEGATIVE.fullmatch(stamp)
                     else f"bad timestep token {tokens[0]!r}")
            timestep = int(stamp)
            first, tokens = 1, tokens[1:]
            if not tokens:
                raise ICMSyntaxError(lineno, len(raw), "timestep with no op")
        word = tokens[0]
        if word not in OP_BASES:
            fail(0, f"unknown op {word!r}")
        if len(tokens) != 3:
            fail(0, f"{word} expects 2 arguments")
        bases = OP_BASES[word]
        wires = []
        for i in (1,) if bases else (1, 2):
            tok = tokens[i]
            if not (tok.isascii() and tok.isdigit()):
                fail(i, "wire ids are non-negative" if _NEGATIVE.fullmatch(tok)
                     else f"bad wire id {tok!r}")
            wires.append(int(tok))
        if wires[1:] == wires[:1]:
            fail(2, "control equals target")
        basis = tokens[2] if bases else None
        if bases and basis not in bases:
            fail(2, f"bad {word} basis {basis!r}")
        ops.append(ICMOp(word, slot(wires, timestep), tuple(wires), basis))

    if not ops:
        raise ICMSyntaxError(1, 1, "no operations")
    wire_count = max(max(op.wires) for op in ops) + 1
    return ICMCircuit(wire_count, ops)


def format_icm(circuit: ICMCircuit) -> str:
    """Serialize a circuit back to the text format with explicit timesteps."""
    lines = []
    for op in circuit.ops:
        args = (*op.wires, op.basis) if op.basis else op.wires
        lines.append(f"@{op.timestep} {op.kind} " + " ".join(map(str, args)))
    return "\n".join(lines) + "\n"


def recycle_wires(circuit: ICMCircuit) -> ICMCircuit:
    """Share wires between non-overlapping qubit lifetimes.

    Greedy first-fit over lifetimes in init-time order: a lifetime may
    reuse a wire whose previous occupant was measured strictly before
    the new initialisation.  On interval structures this is a minimal
    colouring, so the result never uses more wires than necessary.  The
    op multiset and all timesteps are unchanged; only wire names move.
    """
    wire_free_at: list[int | None] = []  # per output wire: last occupant's end, None while live
    slot_map: dict[tuple[int, int], int] = {}  # (wire, timestep) -> output wire
    for lt in circuit.lifetimes():
        placed = next(
            (w for w, end in enumerate(wire_free_at) if end is not None and end < lt.start),
            len(wire_free_at),
        )
        if placed == len(wire_free_at):
            wire_free_at.append(None)
        wire_free_at[placed] = lt.end
        for op in lt.ops:
            slot_map[(lt.wire, op.timestep)] = placed
    new_ops = [
        replace(op, wires=tuple(slot_map[(w, op.timestep)] for w in op.wires))
        for op in circuit.ops
    ]
    return ICMCircuit(max(len(wire_free_at), 1), new_ops)


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
