"""The connection manager: pool rails, reservation and the state machine.

The pool is a bank of straight rails parallel to the circuit's time
axis, stacked along x in a plane ``pool_gap`` above the wire rows.  A
successful distillation output is bound to a rail and the resulting
connection walks a four-state lifecycle::

    available -> reserved(type) -> assigned -> tobeavailable -> available

A new connection gets the lowest rail whose last holder is back to
``available`` with its stretch ended before the new anchor, else a new
rail; so only a rail's last holder can be live.  A ``tobeavailable``
connection holds its rail until the sweep finds all its cells in the
past.  Surplus distillation successes beyond the per-type cap are
discarded, never buffered.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geom import Point3

AVAILABLE = "available"
RESERVED = "reserved"
ASSIGNED = "assigned"
TOBEAVAILABLE = "tobeavailable"

RAIL_PITCH = 2  # x distance between neighbouring rails
KB_LEAD = 2  # time distance from a box port to its rail anchor

_LEGAL_EDGES = {
    (AVAILABLE, RESERVED),
    (RESERVED, ASSIGNED),
    (ASSIGNED, TOBEAVAILABLE),
    (TOBEAVAILABLE, AVAILABLE),
}


class PoolError(Exception):
    pass


@dataclass(frozen=True)
class PoolConfig:
    pool_gap: int = 4
    cap_per_type: int = 10

    def __post_init__(self):
        if self.pool_gap < 1:
            raise ValueError("pool_gap must be at least 1")
        if self.cap_per_type < 1:
            raise ValueError("cap_per_type must be at least 1")

    @property
    def budgeted_rails(self) -> int:
        """Rails pre-budgeted into the channel."""
        return 2 * self.cap_per_type


@dataclass
class Connection:
    id: str
    state: str = AVAILABLE
    kind: str | None = None  # "A" | "Y" once reserved
    rail: int | None = None
    source_box: str | None = None
    port: Point3 | None = None
    anchor_t: int | None = None
    extended_to: int | None = None  # last rail cell claimed so far


class ConnectionPool:
    """Single-writer connection manager.

    ``rails[i]`` lists the connections rail ``i`` was granted to, in grant
    order.  A rail is granted only when its last holder is ``available``
    and ended before the new anchor, so only the last holder can be live.
    """

    def __init__(self, config: PoolConfig, journal=None):
        self.config = config
        self.journal = journal
        self.rails: list[list[Connection]] = []
        self.connections: dict[str, Connection] = {}
        self.transitions: list[tuple[str, str, str]] = []
        # Conservation bookkeeping, per type.
        self.offered = {"A": 0, "Y": 0}
        self.discarded = {"A": 0, "Y": 0}
        self.assigned_out = {"A": 0, "Y": 0}
        self._seq = 0

    # -- state machine plumbing -------------------------------------------

    def _move(self, conn: Connection, state: str) -> None:
        edge = (conn.state, state)
        if edge not in _LEGAL_EDGES:
            raise PoolError(f"illegal transition {edge} for {conn.id}")
        self.transitions.append((conn.id, conn.state, state))
        conn.state = state

    def rail_position(self, index: int) -> tuple[int, int]:
        # Rails sit on odd x so they never align with wire rows (even x),
        # keeping pin drop columns and rail lines disjoint.
        return (index * RAIL_PITCH + 1, self.config.pool_gap)

    def _grab_rail(self, anchor_t: int) -> int:
        # Earlier holders ended before the last one began, so it decides.
        for index, holders in enumerate(self.rails):
            last = holders[-1]
            if last.state == AVAILABLE and last.extended_to < anchor_t:
                return index
        self.rails.append([])
        return len(self.rails) - 1

    def _holders(self, state: str):
        """The rails' last holders in ``state``, in rail order."""
        for holders in self.rails:
            if holders[-1].state == state:
                yield holders[-1]

    def reserved_count(self, kind: str) -> int:
        return sum(1 for c in self._holders(RESERVED) if c.kind == kind)

    def counts(self) -> tuple[int, int]:
        return (self.reserved_count("A"), self.reserved_count("Y"))

    # -- operations --------------------------------------------------------

    def reserve_connections(self, successes) -> list[str]:
        """Bind each success to a free rail, lowest index first.

        ``successes`` is a list of (box_id, kind, port).  Successes beyond
        the per-type cap are discarded silently (the box output is simply
        never used) and only counted in the stats.
        """
        reserved = []
        for box_id, kind, port in successes:
            self.offered[kind] += 1
            if self.reserved_count(kind) >= self.config.cap_per_type:
                self.discarded[kind] += 1
                if self.journal:
                    self.journal.log("discard", kind, box_id)
                continue
            anchor_t = port.t + KB_LEAD
            rail = self._grab_rail(anchor_t)
            self._seq += 1
            conn = Connection(id=f"c{self._seq}")
            self.connections[conn.id] = conn
            self.rails[rail].append(conn)
            self._move(conn, RESERVED)
            conn.kind = kind
            conn.rail = rail
            conn.source_box = box_id
            conn.port = port
            conn.anchor_t = anchor_t
            conn.extended_to = anchor_t
            reserved.append(conn.id)
            if self.journal:
                self.journal.log("reserve", conn.id, kind, rail, box_id)
        return reserved

    def assign_to_input(self, input_key: str, kind: str):
        """Assign the reserved connection of matching type on the lowest rail.

        Returns the connection id, or None when nothing of that type is
        reserved (the insufficient-states signal; never an exception).
        """
        conn = next((c for c in self._holders(RESERVED) if c.kind == kind), None)
        if conn is None:
            return None
        self._move(conn, ASSIGNED)
        self.assigned_out[kind] += 1
        if self.journal:
            self.journal.log("assign", conn.id, input_key)
        return conn.id

    def mark_tobeavailable(self, conn_ids) -> None:
        for cid in conn_ids:
            conn = self.connections[cid]
            self._move(conn, TOBEAVAILABLE)
            if self.journal:
                self.journal.log("mark-tobeavailable", cid)

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

    def sweep(self, now: int) -> list[str]:
        """Reset every tobeavailable connection whose rail cells all lie
        strictly before ``now``; returns the freed connection ids.  The
        stretch (``extended_to``) stays: the grant rule reads it."""
        freed = []
        for conn in sorted(self._holders(TOBEAVAILABLE), key=lambda c: int(c.id[1:])):
            if conn.extended_to >= now:
                continue
            self._move(conn, AVAILABLE)
            conn.kind = None
            conn.rail = None
            conn.source_box = None
            conn.port = None
            freed.append(conn.id)
            if self.journal:
                self.journal.log("sweep-available", conn.id)
        return freed
