"""The online synthesis loop.

One iteration per demand event (all magic inputs of one timestep, from
:func:`~topoasm.icm.magic_events`), plus standalone iterations whenever
the proactive scheduling condition fires between events:

1. if the manager lacks distilled states or the condition is due, fire
   a round: place boxes, simulate outcomes, reserve connections;
2. emit circuit geometry up to the earliest future magic input;
3. assign reserved connections to the pending inputs;
4. determine the segment specs (pool-to-pin drops, rail extensions,
   box-to-rail links), add their obstacles, compute the paths;
5. sweep stale connections back to available and record the step.

Everything is deterministic for a fixed config: box outcomes come from
a seeded generator or a scripted bitmap list, and all iteration orders
are explicit.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field, replace

from .geom import (
    BOX_DEPTH,
    BRAID_DEPTH,
    Box3,
    GeometryBuilder,
    GeometrySet,
    Point3,
    TemplateCollisionError,
    cell_box,
    corridor_span,
    global_bounding_box,
    merge_boxes,
    pin_cell,
    plumbing_volume,
    template_rows,
    wire_row,
)
from .icm import MAGIC_BASES, ICMCircuit, MagicInput, magic_events, recycle_wires
from .pool import RAIL_PITCH, Connection, ConnectionPool, PoolConfig
from .route import (
    GUIDE,
    OCCUPY,
    SEG_B,
    SEG_C,
    SEG_E,
    NoPathError,
    SegmentSpec,
    World,
    compute_taskset,
    describe_spec,
)
from .sched import (
    COMPLETION_LAG,
    DistillationLayer,
    PlacementError,
    SchedulerPolicy,
    place_alap_layer,
    place_asap_stack,
    place_spiral_layer,
    required_round_size,
)

CHANNEL_CLEARANCE = 2  # free cells around circuit and pool in x and y


class EngineError(Exception):
    pass


class SynthesisFailure(EngineError):
    """Synthesis could not complete; carries the diagnosis journal."""

    def __init__(self, message: str, journal: "Journal"):
        super().__init__(message)
        self.journal = journal


class Journal:
    """Append-only diagnosis log of `<step> <op> <args...>` lines."""

    def __init__(self):
        self.lines: list[str] = []
        self.step = 0

    def log(self, op: str, *args) -> None:
        tail = " ".join(str(a) for a in args)
        self.lines.append(f"{self.step} {op} {tail}".rstrip())

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


@dataclass(frozen=True)
class SynthesisConfig:
    policy: SchedulerPolicy = field(default_factory=SchedulerPolicy)
    pool: PoolConfig = field(default_factory=PoolConfig)
    seed: int = 0
    outcome_script: tuple | None = None  # one 0/1 bitmap string per round
    max_rounds: int | None = None  # None: max(64, 2 * magic timesteps + 16)
    strict: bool = False
    optimize_wires: bool = True
    segment_order: str = "cbe"  # compute order of the segment classes

    def __post_init__(self):
        if self.segment_order not in ("cbe", "ceb"):
            raise ValueError("segment_order must be 'cbe' or 'ceb'")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        cond = self.policy.condition
        if cond[0] == "pool" and not 0 <= cond[1] <= self.pool.cap_per_type:
            raise ValueError(f"pool threshold must lie in [0, {self.pool.cap_per_type}]")


@dataclass
class StepRecord:
    step: int
    nr_a: int
    nr_y: int
    a_pool: int
    y_pool: int
    sched_round: int


@dataclass
class Assembly:
    geometry: GeometrySet
    layers: list[DistillationLayer]
    records: list[StepRecord]
    volume: int
    journal: Journal
    deliveries: dict = field(default_factory=dict)  # input key -> (conn id, path)


@dataclass
class _Segment:
    """One segment a step must route, before its spec and obstacles exist."""

    segment_class: str  # SEG_C | SEG_E | SEG_B
    conn: Connection
    magic: MagicInput | None = None  # SEG_C: the input it delivers
    first: int = 0  # SEG_E: first and last new rail cell
    last: int = 0


class OutcomeSource:
    """Per-box success bits, either seeded-random or scripted."""

    def __init__(self, p_fail: float, seed: int, script=None):
        self.p_fail = p_fail
        self.script = list(script) if script is not None else None
        self.rng = random.Random(seed)
        self.round_no = 0

    def draw(self, n: int) -> list[bool]:
        self.round_no += 1
        if self.script is None:
            return [self.rng.random() >= self.p_fail for _ in range(n)]
        if self.round_no > len(self.script):
            raise EngineError(f"outcome script exhausted at round {self.round_no}")
        bits = self.script[self.round_no - 1].replace(" ", "").strip()
        if len(bits) != n or set(bits) - {"0", "1"}:
            raise EngineError(
                f"outcome script round {self.round_no}: need {n} bits, got {bits!r}"
            )
        return [b == "1" for b in bits]


def simulate_round(layer: DistillationLayer, source: OutcomeSource):
    """Success list [(box_id, kind, port)] in box-id order."""
    bits = source.draw(len(layer.boxes))
    return [(box.box_id, box.kind, box.port) for box, ok in zip(layer.boxes, bits) if ok]


class Synthesizer:
    """Single-use orchestrator for one synthesis run."""

    def __init__(self, circuit: ICMCircuit, config: SynthesisConfig):
        self.config = config
        self.circuit = recycle_wires(circuit) if config.optimize_wires else circuit
        self.journal = Journal()
        self.world = World(self.journal)
        self.geometry = GeometrySet()
        self.builder = GeometryBuilder(self.circuit, self.geometry, claim=self.world.claim)
        self.events = magic_events(self.circuit)
        self.demand_totals = Counter(m.basis for m in self.circuit.magic_inputs)
        pool_cfg = config.pool
        if config.policy.kind == "asap":
            # The whole demand parks in the pool at once, so the cap must
            # admit it; the stated cap still applies to the other modes.
            totals = self.demand_totals
            pool_cfg = replace(
                pool_cfg, cap_per_type=max(pool_cfg.cap_per_type, totals["A"], totals["Y"])
            )
        else:
            # An event's inputs must all be reserved at once, and no round
            # lifts the pool above its cap.
            for t, inputs in self.events:
                for basis, n in sorted(Counter(m.basis for m in inputs).items()):
                    if n > pool_cfg.cap_per_type:
                        raise SynthesisFailure(
                            f"event at t={t} needs {n} {basis} states, above the pool cap "
                            f"of {pool_cfg.cap_per_type}",
                            self.journal,
                        )
        self.pool = ConnectionPool(pool_cfg, self.journal)
        self.outcomes = OutcomeSource(config.policy.p_fail, config.seed, config.outcome_script)
        # A runaway guard sized by the circuit: the rounds a run needs grow
        # with its demand events, so no fixed bound serves every length.
        self.max_rounds = config.max_rounds
        if self.max_rounds is None:
            self.max_rounds = max(64, 2 * len(self.events) + 16)
        self.layers: list[DistillationLayer] = []
        self.records: list[StepRecord] = []
        self.deliveries: dict = {}
        self.demand_max = {"A": 0, "Y": 0}
        self.next_round_at: int | None = None
        self.rail_line_guards: dict[int, str] = {}  # rail index -> y=pool_gap guide
        self.rail_under_guards: dict[int, str] = {}  # rail index -> y=pool_gap-1 guide
        self.conn_fwd_guards: dict[str, str] = {}  # conn id -> forward-stretch guide
        self.pin_guards: dict[str, str] = {}  # input key -> guide obstacle id
        self._pending_links: list[str] = []  # reservations awaiting their box link
        self._rail_polylines: dict[str, object] = {}
        self.t_floor = -(BOX_DEPTH + 12)
        self.t_ceiling = self.circuit.last_timestep + 24
        self._reserve_circuit_footprint()

    def _reserve_circuit_footprint(self) -> None:
        """Fence off everything the circuit will claim later.

        All circuit coordinates are computable before execution; only box
        placement and connections are online.  Permanent guides over the
        future wire corridors, CNOT templates and delivery pins keep
        connection paths from squatting cells the emitter needs later.
        """
        for m in self.circuit.magic_inputs:
            cell = cell_box(pin_cell(m).as_tuple())
            obs = self.world.obstacles.add(cell, GUIDE, 0, f"pin:{m.key}")
            self.pin_guards[m.key] = obs.oid
        for lt in self.circuit.lifetimes():
            row, start, end = corridor_span(lt, self.t_ceiling)
            if end > start:
                self.world.obstacles.add(
                    Box3(Point3(start, row, 0), Point3(end, row + 1, 1)),
                    GUIDE, 0, "circuit",
                )
        for op in self.circuit.cnots():
            xl, xr = template_rows(op)
            self.world.obstacles.add(
                Box3(
                    Point3(op.timestep, xl, 1),
                    Point3(op.timestep + BRAID_DEPTH, xr + 1, 2),
                ),
                GUIDE, 0, "circuit",
            )

    # -- channel ------------------------------------------------------------

    def channel(self) -> Box3:
        """Clearance region around circuit and pool; grows with the rails."""
        pc = self.pool.config
        top_row = wire_row(self.circuit.wire_count - 1)
        circuit_box = Box3(
            Point3(self.t_floor, -1, -1), Point3(self.t_ceiling, top_row + 2, 3)
        )
        rails = max(len(self.pool.rails), pc.budgeted_rails)
        rail_hi_x = rails * RAIL_PITCH + 2
        pool_box = Box3(
            Point3(self.t_floor, 0, pc.pool_gap),
            Point3(self.t_ceiling, rail_hi_x, pc.pool_gap + 1),
        )
        c = CHANNEL_CLEARANCE
        return merge_boxes(circuit_box, pool_box).inflated(0, c, c)

    # -- scheduling ----------------------------------------------------------

    def _round_sizes(self, counts) -> tuple[int, int]:
        pol = self.config.policy
        demand = {"asap": self.demand_totals, "alap": counts, "spiral": self.demand_max}[pol.kind]
        return tuple(
            required_round_size(demand[b], pol.p_fail, pol.confidence) if demand[b] else 0
            for b in MAGIC_BASES
        )

    def _fire_round(self, trigger_time: int, counts) -> None:
        pol = self.config.policy
        n_a, n_y = self._round_sizes(counts)
        round_id = len(self.layers) + 1
        if round_id > self.max_rounds:
            raise SynthesisFailure(
                f"exceeded max_rounds={self.max_rounds}: {len(self.layers)} rounds fired, "
                f"{self.pool.reserved_count('A')} A and {self.pool.reserved_count('Y')} Y "
                f"reserved at t={trigger_time}",
                self.journal,
            )
        self.journal.log("round", round_id, trigger_time, n_a, n_y)
        try:
            if pol.kind == "asap":
                layer = place_asap_stack(
                    n_a, n_y, self.world,
                    stack_width=wire_row(self.circuit.wire_count - 1) + 4,
                    round_id=round_id,
                )
            elif pol.kind == "alap":
                layer = place_alap_layer(
                    n_a, n_y, trigger_time, self.world, self.channel(), round_id=round_id,
                )
            else:
                layer = place_spiral_layer(
                    n_a, n_y, trigger_time, self.world, self.channel(), round_id=round_id,
                )
        except PlacementError as exc:
            raise SynthesisFailure(f"placement failed: {exc}", self.journal) from exc
        self.layers.append(layer)
        self.geometry.boxes.extend(layer.boxes)
        try:
            successes = simulate_round(layer, self.outcomes)
        except EngineError as exc:
            raise SynthesisFailure(str(exc), self.journal) from exc
        won = {box_id for box_id, _, _ in successes}
        self.journal.log(
            "simulate", round_id,
            "".join("1" if box.box_id in won else "0" for box in layer.boxes),
        )
        self._pending_links.extend(self.pool.reserve_connections(successes))
        if pol.kind == "spiral":
            if pol.condition[0] == "after-round":
                self.next_round_at = trigger_time + BOX_DEPTH + COMPLETION_LAG
            elif pol.condition[0] == "temporal":
                self.next_round_at = trigger_time + pol.condition[1]

    def _ensure_rail_guards(self, rail_index: int) -> None:
        if rail_index in self.rail_line_guards:
            return
        rail = self.pool.rails[rail_index]
        line = Box3(
            Point3(self.t_floor, rail.x, rail.y),
            Point3(self.t_ceiling, rail.x + 1, rail.y + 1),
        )
        under = Box3(
            Point3(self.t_floor, rail.x, rail.y - 1),
            Point3(self.t_ceiling, rail.x + 1, rail.y),
        )
        self.rail_line_guards[rail_index] = self.world.obstacles.add(
            line, GUIDE, 0, f"rail{rail_index}"
        ).oid
        self.rail_under_guards[rail_index] = self.world.obstacles.add(
            under, GUIDE, 0, f"rail{rail_index}"
        ).oid

    def _add_fwd_guard(self, conn) -> None:
        # Fences the connection's forward rail stretch (line and under-strip)
        # against everything except its own extensions and final drop.
        rail = self.pool.rails[conn.rail]
        region = Box3(
            Point3(conn.anchor_t + 1, rail.x, rail.y - 1),
            Point3(self.t_ceiling, rail.x + 1, rail.y + 1),
        )
        obs = self.world.obstacles.add(region, GUIDE, 0, conn.id)
        self.conn_fwd_guards[conn.id] = obs.oid

    def _insufficient(self, counts) -> bool:
        return (
            counts["A"] > self.pool.reserved_count("A")
            or counts["Y"] > self.pool.reserved_count("Y")
        )

    def _proactive_due(self, step_time: int) -> bool:
        cond = self.config.policy.condition
        if cond[0] in ("after-round", "temporal"):
            return self.next_round_at is not None and step_time >= self.next_round_at
        if cond[0] == "pool":
            return (
                self.pool.reserved_count("A") < cond[1]
                or self.pool.reserved_count("Y") < cond[1]
            )
        return False

    def _schedule_phase(self, step_time: int, counts) -> int:
        """Work-flow lines 8-12 for one iteration; returns rounds fired.

        alap fires one round per demand event, spiral fires while its
        proactive condition is due, and a reactive backstop then covers
        any shortfall.  asap reserved everything up front, so a shortfall
        there is a fault; ``strict`` forbids the backstop under spiral.
        """
        pol = self.config.policy
        fired = 0
        if pol.kind == "alap" and (counts["A"] or counts["Y"]):
            self._fire_round(step_time, counts)
            fired += 1
        if pol.kind == "spiral":
            while self._proactive_due(step_time):
                self._fire_round(step_time, counts)
                fired += 1
                if pol.condition[0] == "pool" and not self._insufficient(counts):
                    break
        if self._insufficient(counts):
            if pol.kind == "asap":
                raise SynthesisFailure("asap pool exhausted mid-circuit", self.journal)
            if pol.kind == "spiral" and self.config.strict:
                raise SynthesisFailure(
                    "insufficient distilled states in strict mode", self.journal
                )
            while self._insufficient(counts):
                self._fire_round(step_time, counts)
                fired += 1
        return fired

    # -- the main loop --------------------------------------------------------

    def run(self) -> Assembly:
        cfg = self.config
        events = self.events
        self.journal.log("begin", cfg.policy.kind, cfg.seed)

        if cfg.policy.kind == "asap":
            totals = self.demand_totals
            while (
                self.pool.reserved_count("A") < totals["A"]
                or self.pool.reserved_count("Y") < totals["Y"]
            ):
                self._fire_round(-(BOX_DEPTH + 1), totals)

        k = 0  # the first demand event not yet handled
        step = 0
        while k < len(events):
            # next_round_at is set only by spiral's after-round and temporal
            # conditions, the only ones that fire between events.
            standalone = self.next_round_at is not None and self.next_round_at < events[k][0]
            step += 1
            self.journal.step = step
            if standalone:
                step_time, inputs = self.next_round_at, ()
            else:
                step_time, inputs = events[k]

            counts = Counter(m.basis for m in inputs)
            self.journal.log("step-begin", step_time, counts["A"], counts["Y"])
            for basis in MAGIC_BASES:
                self.demand_max[basis] = max(self.demand_max[basis], counts[basis])

            fired = self._schedule_phase(step_time, counts)

            # lines 13-14: geometry up to the event after event k, whether
            # this step handles event k or is a standalone round before it
            if k + 1 < len(events):
                frontier = events[k + 1][0]
            else:
                frontier = self.circuit.last_timestep + 1
            self.journal.log("geometry", frontier)
            self._emit(frontier)

            # line 15: assign connections to this step's inputs
            assigned = []
            for m in inputs:
                cid = self.pool.assign_to_input(m.key, m.basis)
                if cid is None:
                    raise SynthesisFailure(
                        f"no reserved {m.basis} connection for {m.key}", self.journal
                    )
                assigned.append((m, self.pool.connections[cid]))

            # lines 16-22
            self._connect_step(frontier, assigned)

            self.records.append(
                StepRecord(
                    step, counts["A"], counts["Y"],
                    self.pool.reserved_count("A"), self.pool.reserved_count("Y"),
                    1 if fired else 0,
                )
            )
            self.journal.log(
                "record", counts["A"], counts["Y"],
                self.pool.reserved_count("A"), self.pool.reserved_count("Y"),
                1 if fired else 0,
            )

            if not standalone:
                k += 1

        # final flush: emit the tail of the circuit and settle the pool
        self.journal.step = step + 1
        final_frontier = self.circuit.last_timestep + 1
        self.journal.log("geometry", final_frontier)
        self._emit(final_frontier)
        self._connect_step(final_frontier, [])

        if len(self.deliveries) != len(self.circuit.magic_inputs):
            raise SynthesisFailure(
                f"only {len(self.deliveries)} of {len(self.circuit.magic_inputs)} inputs connected",
                self.journal,
            )
        volume = plumbing_volume(global_bounding_box(self.geometry))
        self.journal.log("volume", volume)
        return Assembly(
            geometry=self.geometry,
            layers=self.layers,
            records=self.records,
            volume=volume,
            journal=self.journal,
            deliveries=self.deliveries,
        )

    def _emit(self, frontier: int) -> None:
        try:
            self.builder.emit_until(frontier)
        except TemplateCollisionError as exc:
            self.journal.log("template-collision", str(exc))
            raise SynthesisFailure(str(exc), self.journal) from exc

    # -- segment determination and computation --------------------------------

    def _connect_step(self, frontier: int, assigned) -> None:
        pool_y = self.pool.config.pool_gap
        segments = []

        # line 16: pool -> circuit drops for the assigned inputs
        for m, conn in assigned:
            segments.append(_Segment(SEG_C, conn, magic=m))
            self.journal.log("spec-c", conn.id, m.key)

        # line 17: delivered connections leave the pool
        self.pool.mark_tobeavailable([conn.id for _, conn in assigned])

        # line 18: rail extensions; delivered ones get their final stretch
        extensions = []
        for m, conn in assigned:
            if m.timestep > conn.extended_to:
                extensions.append((conn, conn.extended_to + 1, m.timestep))
        extensions.extend(self.pool.extension_targets(frontier))
        extensions.sort(key=lambda e: e[0].rail)
        for conn, first, last in extensions:
            segments.append(_Segment(SEG_E, conn, first=first, last=last))
            self.journal.log("spec-e", conn.id, first, last)

        # line 19: box -> pool links for this step's reservations, whether
        # or not they were already consumed by this step's inputs
        fresh = sorted(
            (self.pool.connections[cid] for cid in self._pending_links),
            key=lambda c: c.rail,
        )
        self._pending_links.clear()
        for conn in fresh:
            segments.append(_Segment(SEG_B, conn))
            self.journal.log("spec-b", conn.id, conn.source_box)

        # line 20 starts here: every connection touched this step gets its
        # rail guides before the per-spec occupies are minted
        for seg in segments:
            self._ensure_rail_guards(seg.conn.rail)
            if seg.conn.id not in self.conn_fwd_guards:
                self._add_fwd_guard(seg.conn)

        # line 20: obstacles; priorities descend along the compute order
        class_rank = (
            {SEG_C: 0, SEG_B: 1, SEG_E: 2}
            if self.config.segment_order == "cbe"
            else {SEG_C: 0, SEG_E: 1, SEG_B: 2}
        )
        segments.sort(key=lambda seg: class_rank[seg.segment_class])
        n = len(segments)
        specs = []
        for i, seg in enumerate(segments):
            prio = n - i
            conn = seg.conn
            rail_x, rail_y = self.pool.rail_position(conn.rail)
            if seg.segment_class == SEG_C:
                m = seg.magic
                pin = pin_cell(m)
                shaft_top = max(1, pool_y - 1)
                shaft = Box3(
                    Point3(pin.t, pin.x, 0), Point3(pin.t + 1, pin.x + 1, shaft_top)
                )
                obs = self.world.obstacles.add(shaft, OCCUPY, prio, conn.id)
                own = (
                    obs.oid, self.pin_guards[m.key], self.rail_under_guards[conn.rail],
                    self.conn_fwd_guards[conn.id],
                )
                start = Point3(pin.t, rail_x, rail_y - 1)
                spec = SegmentSpec(start, pin, own, prio, SEG_C, conn.id)
            elif seg.segment_class == SEG_E:
                spec = SegmentSpec(
                    Point3(seg.first, rail_x, rail_y),
                    Point3(seg.last, rail_x, rail_y),
                    (self.rail_line_guards[conn.rail], self.conn_fwd_guards[conn.id]),
                    prio, SEG_E, conn.id,
                )
            else:
                anchor = Point3(conn.anchor_t, rail_x, rail_y)
                port_guard = self.world.obstacles.add(
                    Box3(conn.port, conn.port.shifted(1, 1, 1)), OCCUPY, prio, conn.id
                )
                spec = SegmentSpec(
                    conn.port, anchor,
                    (port_guard.oid, self.rail_line_guards[conn.rail]),
                    prio, SEG_B, conn.id,
                )
            specs.append(spec)

        # line 21: compute in descending priority, which is list order
        try:
            paths = compute_taskset(specs, self.world)
        except NoPathError as exc:
            self.journal.log("no-path", describe_spec(exc.spec))
            raise SynthesisFailure(str(exc), self.journal) from exc

        for seg, path in zip(segments, paths):
            self.journal.log("path", seg.segment_class, seg.conn.id, len(path))
            if seg.segment_class == SEG_E:
                self._extend_rail_polyline(seg.conn, path)
                self.pool.apply_extension(seg.conn, seg.last)
            else:
                self.geometry.defects.append(path.polyline)
            if seg.segment_class == SEG_C:
                self.deliveries[seg.magic.key] = (seg.conn.id, path)

        # line 22: sweep; freed rails shed their forward guards so new
        # occupants can land beyond the old stretch
        for cid in self.pool.sweep(frontier):
            oid = self.conn_fwd_guards.pop(cid, None)
            if oid is not None:
                self.world.obstacles.remove(oid)

    def _extend_rail_polyline(self, conn, path) -> None:
        poly = self._rail_polylines.get(conn.id)
        if poly is None:
            self.geometry.defects.append(path.polyline)
            self._rail_polylines[conn.id] = path.polyline
        else:
            poly.extend_last(Point3(*path.cells[-1]))


def synthesize(circuit: ICMCircuit, config: SynthesisConfig) -> Assembly:
    """Run the full work flow and return the finished assembly."""
    return Synthesizer(circuit, config).run()
