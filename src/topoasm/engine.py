"""The online synthesis loop.

One iteration per demand event (all magic inputs of one timestep, from
:func:`~topoasm.icm.magic_events`), plus standalone iterations whenever
the proactive scheduling condition fires between events:

1. if the manager lacks distilled states or the condition is due, fire
   a round: place boxes, simulate outcomes, reserve connections;
2. emit circuit geometry up to the earliest future magic input;
3. assign reserved connections to the pending inputs;
4. list the pool-to-pin drops, rail runs and box-to-rail links, add
   their guards, then mint the drops' and links' specs and occupies, and
   claim in the order drops + links + runs (``cbe``) or drops + runs +
   links (``ceb``): each block of drops and links is searched as one
   task set, and each rail run is claimed straight by
   :func:`~topoasm.route.claim_run`, with no spec, since the rail's
   guides and the grant-after-sweep rule keep it free; its guides'
   switch lines are logged but no guide switched, and it joins its
   rail's pending stretch;
5. sweep stale connections back to available, their stretches turning
   solid, and record the step; the stretches still pending turn solid
   at the end, so a stretch turns solid only at these two points.

A fault in any of these steps (a placement, search, claim clash,
template collision or outcome script) ends synthesis:
:meth:`Synthesizer.run` is the one place that turns it into a
:class:`SynthesisFailure` carrying the journal.

Everything is deterministic for a fixed config: box outcomes come from
a seeded generator or a scripted bitmap list, and all iteration orders
are explicit.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, field

from .geom import (
    BOX_DEPTH,
    BRAID_DEPTH,
    PRIMAL,
    Box3,
    DefectPolyline,
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
from .icm import MAGIC_BASES, ICMCircuit, magic_events, recycle_wires
from .pool import POOL_GAP, Connection, ConnectionPool
from .route import (
    GUIDE,
    OCCUPY,
    SEG_B,
    SEG_C,
    SEG_E,
    Journal,
    NoPathError,
    RouteError,
    SegmentSpec,
    World,
    claim_run,
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

    def __init__(self, message: str, journal: Journal):
        super().__init__(message)
        self.journal = journal


@dataclass(frozen=True)
class SynthesisConfig:
    policy: SchedulerPolicy = field(default_factory=SchedulerPolicy)
    pool_cap: int = 10  # max reserved connections per state type
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
        if self.pool_cap < 1:
            raise ValueError("pool_cap must be at least 1")
        cond = self.policy.condition
        if cond[0] == "pool" and not 0 <= cond[1] <= self.pool_cap:
            raise ValueError(f"pool threshold must lie in [0, {self.pool_cap}]")


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
    bbox: Box3  # global bounding box of the geometry
    journal: Journal
    deliveries: dict = field(default_factory=dict)  # input key -> (conn id, delivered polyline)

    @property
    def volume(self) -> int:
        return plumbing_volume(self.bbox)


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


def read_outcome_script(text: str) -> tuple[str, ...]:
    """The bitmap lines of an outcome script, one per round, stripped;
    blank lines and lines whose first non-blank character is ``#`` are
    skipped."""
    lines = (ln.strip() for ln in text.splitlines())
    return tuple(ln for ln in lines if ln and not ln.startswith("#"))


class Synthesizer:
    """Single-use orchestrator for one synthesis run."""

    def __init__(self, circuit: ICMCircuit, config: SynthesisConfig):
        self.config = config
        self.circuit = recycle_wires(circuit) if config.optimize_wires else circuit
        self.world = World()
        self.journal = self.world.journal
        self.geometry = GeometrySet()
        self.builder = GeometryBuilder(self.circuit, self.geometry, self.world.claim)
        self.events = magic_events(self.circuit)
        self.demand_totals = Counter(m.basis for m in self.circuit.magic_inputs)
        cap = config.pool_cap
        if config.policy.kind == "asap":
            # The whole demand parks in the pool at once, so the cap must
            # admit it; the stated cap still applies to the other modes.
            cap = max(cap, self.demand_totals["A"], self.demand_totals["Y"])
        else:
            # An event's inputs must all be reserved at once, and no round
            # lifts the pool above its cap.
            for t, inputs in self.events:
                for basis, n in sorted(Counter(m.basis for m in inputs).items()):
                    if n > cap:
                        self.journal.log(f"over-cap {t} {basis} {n} {cap}")
                        raise SynthesisFailure(
                            f"event at t={t} needs {n} {basis} states, above the pool cap "
                            f"of {cap}",
                            self.journal,
                        )
        self.pool = ConnectionPool(cap, self.journal)
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
        self.rail_line_guards: dict[int, str] = {}  # rail index -> y=POOL_GAP guide
        self.rail_under_guards: dict[int, str] = {}  # rail index -> y=POOL_GAP-1 guide
        self.conn_fwd_guards: dict[str, str] = {}  # conn id -> forward-stretch guide
        self.pin_guards: dict[str, str] = {}  # input key -> guide obstacle id
        self._pending_links: list[Connection] = []  # reservations awaiting their box link
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
            cell = cell_box(pin_cell(m))
            self.pin_guards[m.key] = self.world.obstacles.add(cell, GUIDE, 0, f"pin:{m.key}")
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
        top_row = wire_row(self.circuit.wire_count - 1)
        circuit_box = Box3(
            Point3(self.t_floor, -1, -1), Point3(self.t_ceiling, top_row + 2, 3)
        )
        # two rails per unit of cap are budgeted in from the start
        rails = max(len(self.pool.rails), 2 * self.pool.cap_per_type)
        rail_hi_x = self.pool.rail_position(rails)[0] + 1
        pool_box = Box3(
            Point3(self.t_floor, 0, POOL_GAP), Point3(self.t_ceiling, rail_hi_x, POOL_GAP + 1)
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
        self.journal.log(f"round {round_id} {trigger_time} {n_a} {n_y}")
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
        self.layers.append(layer)
        self.geometry.boxes.extend(layer.boxes)
        bits = self.outcomes.draw(len(layer.boxes))
        # never empty: a round fires only on a demand of at least one state
        self.journal.log(f"simulate {round_id} {''.join('1' if ok else '0' for ok in bits)}")
        self._pending_links.extend(self.pool.reserve_connections(
            [(box.box_id, box.kind, box.port) for box, ok in zip(layer.boxes, bits) if ok]
        ))
        if pol.kind == "spiral":
            if pol.condition[0] == "after-round":
                self.next_round_at = trigger_time + BOX_DEPTH + COMPLETION_LAG
            elif pol.condition[0] == "temporal":
                self.next_round_at = trigger_time + pol.condition[1]

    def _insufficient(self, counts) -> bool:
        return (
            counts["A"] > self.pool.reserved_count("A")
            or counts["Y"] > self.pool.reserved_count("Y")
        )

    def _proactive_due(self, step_time: int) -> bool:
        cond = self.config.policy.condition
        if cond[0] in ("after-round", "temporal"):
            return self.next_round_at is not None and step_time >= self.next_round_at
        # ("pool", threshold), the only other shape SchedulerPolicy admits
        return (
            self.pool.reserved_count("A") < cond[1]
            or self.pool.reserved_count("Y") < cond[1]
        )

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
        """Run the work flow; any fault in it leaves as one
        :class:`SynthesisFailure`, logged first if its kind has a journal op."""
        try:
            return self._run()
        except SynthesisFailure:
            raise
        except (PlacementError, TemplateCollisionError, RouteError, EngineError) as exc:
            message = str(exc)
            if isinstance(exc, NoPathError):
                self.journal.log(f"no-path {describe_spec(exc.spec)}")
            elif isinstance(exc, TemplateCollisionError):
                self.journal.log(f"template-collision {exc}")
            elif isinstance(exc, PlacementError):
                message = f"placement failed: {exc}"
            raise SynthesisFailure(message, self.journal) from exc

    def _run(self) -> Assembly:
        cfg = self.config
        events = self.events
        self.journal.log(f"begin {cfg.policy.kind} {cfg.seed}")

        if cfg.policy.kind == "asap":
            while self._insufficient(self.demand_totals):
                self._fire_round(-(BOX_DEPTH + 1), self.demand_totals)

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
            self.journal.log(f"step-begin {step_time} {counts['A']} {counts['Y']}")
            for basis in MAGIC_BASES:
                self.demand_max[basis] = max(self.demand_max[basis], counts[basis])

            fired = self._schedule_phase(step_time, counts)

            # lines 13-14: geometry up to the event after event k, whether
            # this step handles event k or is a standalone round before it
            if k + 1 < len(events):
                frontier = events[k + 1][0]
            else:
                frontier = self.circuit.last_timestep + 1
            self.journal.log(f"geometry {frontier}")
            self.builder.emit_until(frontier)

            # line 15: assign connections to this step's inputs
            assigned = []
            for m in inputs:
                conn = self.pool.assign_to_input(m.key, m.basis)
                if conn is None:
                    raise SynthesisFailure(
                        f"no reserved {m.basis} connection for {m.key}", self.journal
                    )
                assigned.append((m, conn))

            # lines 16-22
            self._connect_step(frontier, assigned)

            rec = StepRecord(
                step, counts["A"], counts["Y"],
                self.pool.reserved_count("A"), self.pool.reserved_count("Y"),
                1 if fired else 0,
            )
            self.records.append(rec)
            self.journal.log(f"record {rec.nr_a} {rec.nr_y} {rec.a_pool} {rec.y_pool} {rec.sched_round}")

            if not standalone:
                k += 1

        # final flush: emit the tail of the circuit and settle the pool
        self.journal.step = step + 1
        final_frontier = self.circuit.last_timestep + 1
        self.journal.log(f"geometry {final_frontier}")
        self.builder.emit_until(final_frontier)
        self._connect_step(final_frontier, [])
        for xy in list(self.world.pending):
            self.world.flush(*xy)

        if len(self.deliveries) != len(self.circuit.magic_inputs):
            raise SynthesisFailure(
                f"only {len(self.deliveries)} of {len(self.circuit.magic_inputs)} inputs connected",
                self.journal,
            )
        bbox = global_bounding_box(self.geometry)
        self.journal.log(f"volume {plumbing_volume(bbox)}")
        return Assembly(
            geometry=self.geometry,
            layers=self.layers,
            records=self.records,
            bbox=bbox,
            journal=self.journal,
            deliveries=self.deliveries,
        )

    # -- segment determination and computation --------------------------------

    def _connect_step(self, frontier: int, assigned) -> None:
        # Each segment is a (segment_class, conn, arg) triple; arg is the
        # MagicInput of a drop, the (first, last) cells of a rail run and
        # None for a box link.
        def by_rail(seg):
            return seg[1].rail

        # line 16: pool -> circuit drops for the assigned inputs
        drops = [(SEG_C, conn, m) for m, conn in assigned]
        for _, conn, m in drops:
            self.journal.log(f"spec-c {conn.id} {m.key}")

        # line 17: delivered connections leave the pool
        self.pool.mark_tobeavailable([conn for _, conn in assigned])

        # line 18: rail runs, by rail; delivered ones get their final stretch
        runs = [
            (SEG_E, conn, (conn.extended_to + 1, m.timestep))
            for m, conn in assigned
            if m.timestep > conn.extended_to
        ]
        runs += [(SEG_E, conn, (a, b)) for conn, a, b in self.pool.extension_targets(frontier)]
        runs.sort(key=by_rail)
        for _, conn, (first, last) in runs:
            self.journal.log(f"spec-e {conn.id} {first} {last}")

        # line 19: box -> pool links for this step's reservations, by rail,
        # whether or not they were already consumed by this step's inputs
        links = sorted(
            ((SEG_B, conn, None) for conn in self._pending_links),
            key=by_rail,
        )
        self._pending_links.clear()
        for _, conn, _ in links:
            self.journal.log(f"spec-b {conn.id} {conn.source_box}")

        # line 20 starts here: every connection touched this step gets its
        # guides before the per-spec occupies are minted
        for _, conn, _ in drops + runs + links:
            self._ensure_guards(conn)

        # line 20: the compute order concatenates the lists; each searched
        # spec mints its occupy, and priorities descend along the order
        if self.config.segment_order == "cbe":
            order = drops + links + runs
        else:
            order = drops + runs + links
        n = len(order)
        specs = [None if seg[0] == SEG_E else self._spec(*seg, n - i)
                 for i, seg in enumerate(order)]

        # line 21: compute in descending priority, which is list order: each
        # block of searched specs as one task set, each rail run as a claim
        # into its rail's pending stretch (solid at its holder's sweep or the
        # end); done holds a segment's polyline, or a run's rail position
        done = []
        blocks = itertools.groupby(zip(order, specs), key=lambda p: p[1] is not None)
        for searched, block in blocks:
            if searched:
                done += compute_taskset([spec for _, spec in block], self.world)
                continue
            for (_, conn, (first, last)), _ in block:
                xy = self.pool.rail_position(conn.rail)
                own = (self.rail_line_guards[conn.rail], self.conn_fwd_guards[conn.id])
                claim_run(self.world, conn.id, first, last, *xy, own)
                done.append(xy)

        for (segment_class, conn, arg), poly in zip(order, done):
            if segment_class == SEG_E:
                first, last = arg
                self.journal.log(f"path {SEG_E} {conn.id} {last - first + 1}")
                self._extend_rail_polyline(conn, first, last, *poly)
                self.pool.apply_extension(conn, last)
                continue
            self.journal.log(f"path {segment_class} {conn.id} {len(poly)}")
            self.geometry.defects.append(poly)
            if segment_class == SEG_C:
                self.deliveries[arg.key] = (conn.id, poly)

        # line 22: sweep; a freed connection's stretch turns solid, and its
        # rail sheds the forward guard so new occupants can land beyond it
        for conn in self.pool.sweep(frontier):
            self.world.flush(*self.pool.rail_position(conn.rail))
            self.world.obstacles.remove(self.conn_fwd_guards.pop(conn.id))

    def _ensure_guards(self, conn) -> None:
        """Add the line and under guides of the connection's rail, once per
        rail, and its forward guard, once per connection."""
        if conn.rail not in self.rail_line_guards:
            x, y = self.pool.rail_position(conn.rail)
            for guards, gy in ((self.rail_line_guards, y), (self.rail_under_guards, y - 1)):
                strip = Box3(Point3(self.t_floor, x, gy), Point3(self.t_ceiling, x + 1, gy + 1))
                guards[conn.rail] = self.world.obstacles.add(strip, GUIDE, 0, f"rail{conn.rail}")
        if conn.id not in self.conn_fwd_guards:
            # Fences the connection's forward rail stretch (line and
            # under-strip) against everything except its own extensions and
            # final drop.
            x, y = self.pool.rail_position(conn.rail)
            region = Box3(Point3(conn.anchor_t + 1, x, y - 1), Point3(self.t_ceiling, x + 1, y + 1))
            self.conn_fwd_guards[conn.id] = self.world.obstacles.add(region, GUIDE, 0, conn.id)

    def _spec(self, segment_class, conn, arg, prio) -> SegmentSpec:
        """The searched segment's spec, a drop or a link, with the occupy
        obstacle it mints, the drop shaft or the box port."""
        x, y = self.pool.rail_position(conn.rail)
        if segment_class == SEG_C:
            pin = pin_cell(arg)
            occupy = Box3(Point3(pin.t, pin.x, 0), Point3(pin.t + 1, pin.x + 1, POOL_GAP - 1))
            start, goal = Point3(pin.t, x, y - 1), pin
            guards = (
                self.pin_guards[arg.key], self.rail_under_guards[conn.rail],
                self.conn_fwd_guards[conn.id],
            )
        else:
            occupy = Box3(conn.port, conn.port.shifted(1, 1, 1))
            start, goal = conn.port, Point3(conn.anchor_t, x, y)
            guards = (self.rail_line_guards[conn.rail],)
        oid = self.world.obstacles.add(occupy, OCCUPY, prio, conn.id)
        return SegmentSpec(start, goal, (oid, *guards), prio, segment_class, conn.id)

    def _extend_rail_polyline(self, conn, first, last, x, y) -> None:
        """Draw the rail run ``first .. last``: the connection's first run
        starts its rail polyline, a later one moves the polyline's end."""
        poly = self._rail_polylines.get(conn.id)
        stop = Point3(last, x, y)
        if poly is None:
            start = Point3(first, x, y)
            poly = DefectPolyline(PRIMAL, SEG_E, [start] if first == last else [start, stop])
            self.geometry.defects.append(poly)
            self._rail_polylines[conn.id] = poly
        else:
            poly.extend_last(stop)


def synthesize(circuit: ICMCircuit, config: SynthesisConfig) -> Assembly:
    """Run the full work flow and return the finished assembly."""
    return Synthesizer(circuit, config).run()
