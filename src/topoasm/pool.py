"""The connection manager: pool rails, reservation and the state machine.

The pool is a bank of straight rails parallel to the circuit's time
axis, stacked along x in the plane ``POOL_GAP`` cells above the wire
rows (y = 0).  A successful distillation output is bound to a rail as
a new connection, which starts out reserved and walks the lifecycle::

    reserved(type) -> assigned -> tobeavailable -> available

A new connection gets the lowest rail whose holder is back to
``available`` with its stretch ended before the new anchor, else a new
rail, and replaces that holder: ``rails[i]`` is rail ``i``'s current
holder, the only connection on it that can be live.  A ``tobeavailable``
connection holds its rail until the sweep finds all its cells in the
past.  Surplus distillation successes beyond the per-type cap are
discarded, never buffered.

The journal is the pool's ledger: each move writes one line
(``reserve``, ``assign``, ``mark-tobeavailable``, ``sweep-available``)
and each discard a ``discard`` line; the pool keeps no second record of
them beyond the per-kind ``discarded`` counts and each rail's holder;
connections travel as objects, and their ids only name them there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .geom import Point3

AVAILABLE = "available"
RESERVED = "reserved"
ASSIGNED = "assigned"
TOBEAVAILABLE = "tobeavailable"

RAIL_PITCH = 2  # x distance between neighbouring rails
KB_LEAD = 2  # time distance from a box port to its rail anchor
# y of the rail plane; at least 3, since below that the rails (gap 1) or the
# drop start cells under them (gap 2) land in the CNOT template plane y = 1
POOL_GAP = 4

_LEGAL_EDGES = {
    (RESERVED, ASSIGNED),
    (ASSIGNED, TOBEAVAILABLE),
    (TOBEAVAILABLE, AVAILABLE),
}


class PoolError(Exception):
    pass


@dataclass
class Connection:
    """One reservation, built whole and reserved: every reservation makes
    a new one, so a swept connection keeps its fields and is never reused."""

    id: str
    kind: str  # "A" | "Y"
    rail: int
    source_box: str
    port: Point3
    anchor_t: int
    extended_to: int  # last rail cell claimed so far
    state: str


class ConnectionPool:
    """Single-writer connection manager.

    ``rails[i]`` is rail ``i``'s current holder.  A rail is granted only
    when its holder is ``available`` and ended before the new anchor, and
    the new connection replaces it, so earlier holders need no record.
    ``reserved_count`` reads a per-kind count that a reservation raises
    and a move out of ``reserved`` lowers, with no rail scan.
    """

    def __init__(self, cap_per_type: int, journal):
        self.cap_per_type = cap_per_type
        self.journal = journal
        self.rails: list[Connection] = []
        self._ids = itertools.count(1)  # c1, c2, ... in reservation order
        self.discarded = {"A": 0, "Y": 0}
        self._reserved = {"A": 0, "Y": 0}

    # -- state machine plumbing -------------------------------------------

    def _move(self, conn: Connection, state: str) -> None:
        edge = (conn.state, state)
        if edge not in _LEGAL_EDGES:
            raise PoolError(f"illegal transition {edge} for {conn.id}")
        if conn.state == RESERVED:
            self._reserved[conn.kind] -= 1
        conn.state = state

    def rail_position(self, index: int) -> tuple[int, int]:
        # Rails sit on odd x so they never align with wire rows (even x),
        # keeping pin drop columns and rail lines disjoint.
        return (index * RAIL_PITCH + 1, POOL_GAP)

    def _grab_rail(self, anchor_t: int) -> int:
        # Earlier holders ended before the current one began, so it decides.
        for index, holder in enumerate(self.rails):
            if holder.state == AVAILABLE and holder.extended_to < anchor_t:
                return index
        return len(self.rails)

    def _holders(self, state: str):
        """The rails' holders in ``state``, in rail order."""
        return (c for c in self.rails if c.state == state)

    def reserved_count(self, kind: str) -> int:
        return self._reserved[kind]

    def counts(self) -> tuple[int, int]:
        return (self.reserved_count("A"), self.reserved_count("Y"))

    # -- operations --------------------------------------------------------

    def reserve_connections(self, successes) -> list[Connection]:
        """Bind each success to a free rail, lowest index first; returns
        the new connections.

        ``successes`` is a list of (box_id, kind, port).  Successes beyond
        the per-type cap are discarded silently (the box output is simply
        never used) and only counted in the stats.
        """
        reserved = []
        for box_id, kind, port in successes:
            if self.reserved_count(kind) >= self.cap_per_type:
                self.discarded[kind] += 1
                self.journal.log(f"discard {kind} {box_id}")
                continue
            anchor_t = port.t + KB_LEAD
            rail = self._grab_rail(anchor_t)
            cid = f"c{next(self._ids)}"
            conn = Connection(cid, kind, rail, box_id, port, anchor_t, anchor_t, RESERVED)
            self.rails[rail:rail + 1] = [conn]  # replaces the holder, or opens the rail
            self._reserved[kind] += 1
            reserved.append(conn)
            self.journal.log(f"reserve {cid} {kind} {rail} {box_id}")
        return reserved

    def assign_to_input(self, input_key: str, kind: str):
        """Assign the reserved connection of matching type on the lowest rail.

        Returns the connection, or None when nothing of that type is
        reserved (the insufficient-states signal; never an exception).
        """
        conn = next((c for c in self._holders(RESERVED) if c.kind == kind), None)
        if conn is None:
            return None
        self._move(conn, ASSIGNED)
        self.journal.log(f"assign {conn.id} {input_key}")
        return conn

    def mark_tobeavailable(self, conns) -> None:
        for conn in conns:
            self._move(conn, TOBEAVAILABLE)
            self.journal.log(f"mark-tobeavailable {conn.id}")

    def extension_targets(self, now: int):
        """Rail stretches needed so every reserved connection reaches ``now``.

        Returns (connection, first_new_cell, last_new_cell) triples in rail
        order; each stretch covers cells up to ``now - 1`` afterwards.
        Assigned and tobeavailable connections are left alone: their
        stretch is frozen at delivery time.
        """
        last = now - 1
        return [(c, c.extended_to + 1, last) for c in self._holders(RESERVED) if last > c.extended_to]

    def apply_extension(self, conn: Connection, new_last: int) -> None:
        if new_last < conn.extended_to:
            raise PoolError(f"stretch of {conn.id} may only grow")
        conn.extended_to = new_last

    def sweep(self, now: int) -> list[Connection]:
        """Make every tobeavailable connection whose rail cells all lie
        strictly before ``now`` available, in reservation order; returns
        the freed connections.  Its fields stay: the grant rule reads its
        stretch (``extended_to``), and the caller its rail."""
        freed = []
        for conn in sorted(self._holders(TOBEAVAILABLE), key=lambda c: int(c.id[1:])):
            if conn.extended_to >= now:
                continue
            self._move(conn, AVAILABLE)
            freed.append(conn)
            self.journal.log(f"sweep-available {conn.id}")
        return freed
