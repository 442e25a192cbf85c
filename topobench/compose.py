"""Workload circuits built from the bundled Toffoli fixture.

Sequential composition shifts each copy's timesteps by whole circuit
spans and renames its wires to a fresh block; parallel composition only
renames the wires.  Both work on the ICM source text, so the result is
parsed by the program exactly as a user's file would be.
"""

from __future__ import annotations

import re

_OP = re.compile(r"^@(\d+)\s+(init|cnot|measure)\s+(.*)$")


def explicit_ops(text: str) -> list[tuple[int, str, list[str]]]:
    """(timestep, op, args) for every op line; every op must carry ``@t``."""
    ops = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _OP.match(line)
        if m is None:
            raise ValueError(f"op without explicit timestep: {raw!r}")
        ops.append((int(m.group(1)), m.group(2), m.group(3).split()))
    return ops


def _wire_count(ops) -> int:
    wires = [int(a) for _, op, args in ops for a in (args if op == "cnot" else args[:1])]
    return max(wires) + 1


def _render(ops) -> str:
    ops = sorted(ops, key=lambda o: (o[0], o[1] != "init", o[2]))
    return "".join(f"@{t} {op} {' '.join(args)}\n" for t, op, args in ops)


def compose(text: str, copies: int, sequential: bool) -> str:
    """``copies`` copies of the circuit in ``text``, in sequence or side by side."""
    ops = explicit_ops(text)
    width = _wire_count(ops)
    span = max(t for t, _, _ in ops) + 1
    out = []
    for k in range(copies):
        shift = k * span if sequential else 0
        for t, op, args in ops:
            if op == "cnot":
                new_args = [str(int(a) + k * width) for a in args]
            else:
                new_args = [str(int(args[0]) + k * width), args[1]]
            out.append((t + shift, op, new_args))
    return _render(out)


def magic_events(text: str) -> int:
    """Distinct timesteps that carry an A or Y initialisation."""
    return len({t for t, op, args in explicit_ops(text) if op == "init" and args[1] in "AY"})
