"""The connection manager: pool rails, reservation and the state machine.

The pool is a bank of straight rails parallel to the circuit's time
axis, stacked along x in a plane ``pool_gap`` above the wire rows.  A
successful distillation output is bound to the lowest free rail and the
resulting connection walks a four-state lifecycle::

    available -> reserved(type) -> assigned -> tobeavailable -> available

A ``tobeavailable`` connection keeps holding its rail until every cell
it occupies lies strictly in the past; only then does the sweep reset
it.  Surplus distillation successes beyond the per-type cap are
discarded, never buffered.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .geom import Point3

AVAILABLE = "available"
RESERVED = "reserved"
ASSIGNED = "assigned"
TOBEAVAILABLE = "tobeavailable"

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
    rail_pitch: int = 2
    cap_per_type: int = 10
    channel_clearance: int = 2
    kb_lead: int = 2  # time distance from a box port to its rail anchor

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
class Rail:
    index: int
    x: int
    y: int
    occupancy: list = field(default_factory=list)  # disjoint [first_cell, last_cell] pairs

    def occupied_at_or_after(self, t: int) -> bool:
        return any(last >= t for _, last in self.occupancy)

    def add_interval(self, first: int, last: int) -> None:
        for a, b in self.occupancy:
            if first <= b and a <= last:
                raise PoolError(f"rail {self.index} double-booked: [{first},{last}] vs [{a},{b}]")
        self.occupancy.append((first, last))

    def extend_interval(self, first: int, new_last: int) -> None:
        for i, (a, b) in enumerate(self.occupancy):
            if a == first:
                if new_last < b:
                    raise PoolError("rail occupancy may only grow")
                self.occupancy[i] = (a, new_last)
                return
        raise PoolError(f"no occupancy starting at {first} on rail {self.index}")


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
    """Single-writer connection manager."""

    def __init__(self, config: PoolConfig, journal=None):
        self.config = config
        self.journal = journal
        self.rails: list[Rail] = []
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
        return (index * self.config.rail_pitch + 1, self.config.pool_gap)

    def _grab_rail(self, anchor_t: int) -> Rail:
        # Lowest free rail whose residual occupancy lies strictly in the past.
        bound = {c.rail for c in self.connections.values() if c.state != AVAILABLE}
        for rail in self.rails:
            if rail.index not in bound and not rail.occupied_at_or_after(anchor_t):
                return rail
        x, y = self.rail_position(len(self.rails))
        rail = Rail(len(self.rails), x, y)
        self.rails.append(rail)
        return rail

    def reserved_count(self, kind: str) -> int:
        return sum(
            1 for c in self.connections.values() if c.state == RESERVED and c.kind == kind
        )

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
            anchor_t = port.t + self.config.kb_lead
            rail = self._grab_rail(anchor_t)
            self._seq += 1
            conn = Connection(id=f"c{self._seq}")
            self.connections[conn.id] = conn
            self._move(conn, RESERVED)
            conn.kind = kind
            conn.rail = rail.index
            conn.source_box = box_id
            conn.port = port
            conn.anchor_t = anchor_t
            conn.extended_to = anchor_t
            rail.add_interval(anchor_t, anchor_t)
            reserved.append(conn.id)
            if self.journal:
                self.journal.log("reserve", conn.id, kind, rail.index, box_id)
        return reserved

    def assign_to_input(self, input_key: str, kind: str):
        """Assign the reserved connection of matching type on the lowest rail.

        Returns the connection id, or None when nothing of that type is
        reserved (the insufficient-states signal; never an exception).
        """
        candidates = [
            c for c in self.connections.values() if c.state == RESERVED and c.kind == kind
        ]
        if not candidates:
            return None
        conn = min(candidates, key=lambda c: c.rail)
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

        Returns (connection, first_new_cell, last_new_cell) triples; rail
        occupancy covers cells up to ``now - 1`` afterwards.  Assigned and
        tobeavailable connections are left alone: their occupancy is frozen
        at delivery time.
        """
        out = []
        for conn in sorted(
            (c for c in self.connections.values() if c.state == RESERVED),
            key=lambda c: c.rail,
        ):
            target = now - 1
            if target > conn.extended_to:
                out.append((conn, conn.extended_to + 1, target))
        return out

    def apply_extension(self, conn: Connection, new_last: int) -> None:
        rail = self.rails[conn.rail]
        rail.extend_interval(conn.anchor_t, new_last)
        conn.extended_to = new_last

    def sweep(self, now: int) -> list[str]:
        """Reset every tobeavailable connection whose rail cells all lie
        strictly before ``now``; returns the freed connection ids."""
        freed = []
        for conn in sorted(
            (c for c in self.connections.values() if c.state == TOBEAVAILABLE),
            key=lambda c: int(c.id[1:]),
        ):
            if conn.extended_to is not None and conn.extended_to >= now:
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

    # -- invariant helpers for tests ---------------------------------------

    def conservation_holds(self) -> bool:
        """offered - assigned - discarded == currently reserved, per type."""
        return all(
            self.offered[kind] - self.assigned_out[kind] - self.discarded[kind]
            == self.reserved_count(kind)
            for kind in ("A", "Y")
        )
