"""Distillation round sizing and box placement schedulers.

Round sizing is exact: the smallest batch whose binomial success tail
clears the requested confidence.  Placement comes in three flavours:

* ``spiral``  - boxes wind counter-clockwise around the channel that
  encloses the circuit and the connection pool, probing each candidate
  against the spatial index; rings grow outward only when the current
  one is full.
* ``asap``    - the whole demand is stacked in a block before the
  circuit starts.
* ``alap``    - one batch per demand event, ending just before the
  event's timestep, stacked in a wall beside the channel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .geom import BOX_DEPTH, BOX_EXTENTS, Box3, PlacedBox, Point3, box_from_extents
from .route import World

SPIRAL_GAP = 1  # free cells kept around each spiral box in x and y
MAX_RINGS = 48  # spiral rings tried before placement fails
ALAP_WALL_FLOOR = -2  # y of the alap wall's lowest box
ALAP_WALL_HEIGHT = 32  # y extent of one alap wall column
COMPLETION_LAG = 6  # settle time after the deepest box of a round


class PlacementError(Exception):
    """The scheduler ran out of collision-free positions."""


@functools.cache
def required_round_size(k_needed: int, p_fail: float, confidence: float) -> int:
    """Smallest n with P[Binomial(n, 1 - p_fail) >= k_needed] >= confidence;
    memoized, since it depends on nothing else and a run asks for few
    distinct arguments."""
    if k_needed < 1:
        raise ValueError("k_needed must be at least 1")
    if not (0.0 <= p_fail < 1.0):
        raise ValueError("p_fail must lie in [0, 1)")
    if not (0.0 < confidence < 1.0):
        raise ValueError("confidence must lie in (0, 1)")
    p = 1.0 - p_fail
    if p == 1.0:
        return k_needed
    log_p, log_q = math.log(p), math.log(1.0 - p)

    def clears(n: int) -> bool:
        # 1 - P[X < k]: k lower terms, each in log space so that no
        # binomial coefficient overflows a float however large n grows.
        head = math.lgamma(n + 1)
        lower = sum(
            math.exp(head - math.lgamma(i + 1) - math.lgamma(n - i + 1) + i * log_p + (n - i) * log_q)
            for i in range(k_needed)
        )
        return 1.0 - lower >= confidence

    # The tail never falls as n grows, so the smallest n that clears it is
    # bracketed by doubling and then found by bisection.
    if clears(k_needed):
        return k_needed
    lo, hi = k_needed, 2 * k_needed  # clears(lo) is false
    while not clears(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if clears(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class SchedulerPolicy:
    """When rounds fire and how large they are.

    ``condition`` is one of ``("after-round",)``, ``("temporal", period)``
    or ``("pool", threshold)``.  Rounds never push circuit geometry back
    in time.
    """

    kind: str = "spiral"  # spiral | asap | alap
    condition: tuple = ("after-round",)
    p_fail: float = 0.5
    confidence: float = 0.999

    def __post_init__(self):
        if self.kind not in ("spiral", "asap", "alap"):
            raise ValueError(f"unknown scheduler kind {self.kind!r}")
        if not (0.0 <= self.p_fail < 1.0):
            raise ValueError("p_fail must lie in [0, 1)")
        if not (0.0 < self.confidence < 1.0):
            raise ValueError("confidence must lie in (0, 1)")
        cond = self.condition
        if cond != ("after-round",) and not (
            isinstance(cond, tuple) and len(cond) == 2
            and cond[0] in ("temporal", "pool") and isinstance(cond[1], int)
        ):
            raise ValueError(f"bad condition {cond!r}")
        if cond[0] == "temporal" and cond[1] < 1:
            raise ValueError("temporal period must be at least 1")


@dataclass
class DistillationLayer:
    """One scheduling round's placed boxes."""

    round_id: int
    trigger_time: int
    boxes: list[PlacedBox] = field(default_factory=list)


def _mk_box(box_id: str, kind: str, footprint: Box3) -> PlacedBox:
    _, dx, dy = footprint.extents
    port = Point3(footprint.hi.t, footprint.lo.x + dx // 2, footprint.lo.y + dy // 2)
    return PlacedBox(box_id, kind, footprint, port)


def _ring_positions(channel: Box3, ring: int, step: int):
    """Anchor centres along ring ``ring`` of the channel, counter-clockwise.

    Starts at the lower-right corner, walks up the right edge, across the
    top, down the left edge and back along the bottom (x right, y up).
    """
    pad = ring * step
    x0, x1 = channel.lo.x - pad, channel.hi.x + pad
    y0, y1 = channel.lo.y - pad, channel.hi.y + pad
    for y in range(y0, y1 + 1):
        yield (x1, y)
    for x in range(x1 - 1, x0 - 1, -1):
        yield (x, y1)
    for y in range(y1 - 1, y0 - 1, -1):
        yield (x0, y)
    for x in range(x0 + 1, x1):
        yield (x, y0)


def _spiral_positions(channel: Box3):
    """Anchor centres ring after ring around the channel, innermost first;
    raises :class:`PlacementError` once ``MAX_RINGS`` rings are used up."""
    step = max(BOX_EXTENTS["A"][1:]) + SPIRAL_GAP
    for ring in range(1, MAX_RINGS + 1):
        yield from _ring_positions(channel, ring, step)
    raise PlacementError(f"spiral exhausted {MAX_RINGS} rings around {channel}")


def place_spiral_layer(
    n_a: int,
    n_y: int,
    trigger_time: int,
    world: World,
    channel: Box3,
    round_id: int = 0,
) -> DistillationLayer:
    """Place one round's boxes in a spiral around the channel.

    Calibration walks the innermost ring until the first collision-free
    position; every further box continues the same walk from where the
    previous one stopped, so the layout densifies counter-clockwise.

    A candidate is probed as its footprint grown by ``SPIRAL_GAP`` in x
    and y.  A probe whose x-y rectangle overlaps the box placed just
    before it is skipped unasked: every box of the round starts at
    ``trigger_time``, so that box is a solid over the probe's first t
    slice and the index would answer "not free".
    """
    layer = DistillationLayer(round_id, trigger_time)
    walk = _spiral_positions(channel)
    kinds = ["A"] * n_a + ["Y"] * n_y
    t0, gap = trigger_time, SPIRAL_GAP
    near = None  # x-y extent (x0, x1, y0, y1) of the box placed last, grown by the gap
    for i, kind in enumerate(kinds):
        dt, dx, dy = BOX_EXTENTS[kind]
        while True:
            cx, cy = next(walk)
            x0, y0 = cx - dx // 2, cy - dy // 2
            x1, y1 = x0 + dx, y0 + dy
            if near and x0 < near[1] and near[0] < x1 and y0 < near[3] and near[2] < y1:
                continue
            probe = Box3(Point3(t0, x0 - gap, y0 - gap), Point3(t0 + dt, x1 + gap, y1 + gap))
            if world.is_free(probe):
                break
        near = (x0 - gap, x1 + gap, y0 - gap, y1 + gap)
        footprint = Box3(Point3(t0, x0, y0), Point3(t0 + dt, x1, y1))
        box = _mk_box(f"r{round_id}.{kind}{i}", kind, footprint)
        world.claim(box.box_id, box.footprint, "box")
        layer.boxes.append(box)
    return layer


def place_asap_stack(
    n_a: int,
    n_y: int,
    world: World,
    stack_width: int,
    round_id: int = 0,
) -> DistillationLayer:
    """Stack the whole demand in a block that ends before the circuit starts.

    Rows pack along x within ``stack_width`` and pile downward along -y,
    producing the tall stack characteristic of placing everything up
    front.  Every box ends at t <= 0.
    """
    t0 = -(BOX_DEPTH + 1)
    layer = DistillationLayer(round_id, t0)
    kinds = ["A"] * n_a + ["Y"] * n_y
    x = 0
    y_row = -4  # below the wire plane, clear of the circuit rows
    row_depth = 0
    for i, kind in enumerate(kinds):
        dt, dx, dy = BOX_EXTENTS[kind]
        placed = None
        while placed is None:
            if x + dx > stack_width:
                x = 0
                y_row -= row_depth + 1
                row_depth = 0
            lo = Point3(t0, x, y_row - dy)
            footprint = box_from_extents(lo, (dt, dx, dy))
            if world.is_free(footprint):
                placed = footprint
            x += dx + 1
            row_depth = max(row_depth, dy)
        box = _mk_box(f"r{round_id}.{kind}{i}", kind, placed)
        world.claim(box.box_id, box.footprint, "box")
        layer.boxes.append(box)
    return layer


def place_alap_layer(
    n_a: int,
    n_y: int,
    demand_time: int,
    world: World,
    channel: Box3,
    round_id: int = 0,
) -> DistillationLayer:
    """Place one just-in-time batch ending before ``demand_time``.

    Boxes stack upward in a wall beside the channel; when slabs of
    consecutive events overlap in time the wall marches away from the
    circuit, which is what stretches these assemblies sideways.

    Each box takes the lowest ``dy`` free rows at or above ``y`` in its
    column, or opens the next column.  The free rows are read from one
    :meth:`~topoasm.spatial.BoxIndex.solid_rows` mask per column and box
    kind, taken on entering the column (or on the kind's first box in it)
    over the slab a box of that kind could fill, and no position is
    probed.  The mask stays exact while the column fills: within a column
    ``y`` only grows, so this round's boxes claimed since the mask was
    taken lie below ``y``, and nothing else writes the index while the
    round is placed.  :meth:`World.claim` still rejects an overlap loudly.
    """
    t0 = demand_time - BOX_DEPTH - 1
    layer = DistillationLayer(round_id, t0)
    kinds = ["A"] * n_a + ["Y"] * n_y
    base_x = channel.lo.x - 1
    floor_y = ALAP_WALL_FLOOR
    top_y = floor_y + ALAP_WALL_HEIGHT
    wall = (1 << ALAP_WALL_HEIGHT) - 1
    y = floor_y
    col_width = 0
    x_col = base_x
    taken = None  # the (column, kind) whose free runs ``fits`` holds
    for i, kind in enumerate(kinds):
        dt, dx, dy = BOX_EXTENTS[kind]
        while True:
            if taken != (x_col, kind):
                taken = (x_col, kind)
                slab = Box3(Point3(t0, x_col - dx, floor_y), Point3(t0 + dt, x_col, top_y))
                # bit r of fits: rows r .. r + dy - 1 of the wall are free
                fits = free_rows = ~world.index.solid_rows(slab) & wall
                for k in range(1, dy):
                    fits &= free_rows >> k
            free = fits >> (y - floor_y)
            if free:
                break
            y = floor_y
            x_col -= (col_width + 1) if col_width else (dx + 1)
            col_width = 0
            # Each box opens at most one column; 96 more make room to
            # march past the walls of earlier rounds.
            if x_col < base_x - (96 + len(kinds)) * (dx + 1):
                raise PlacementError("alap wall ran away from the channel")
        y += (free & -free).bit_length() - 1
        box = _mk_box(f"r{round_id}.{kind}{i}", kind,
                      box_from_extents(Point3(t0, x_col - dx, y), (dt, dx, dy)))
        world.claim(box.box_id, box.footprint, "box")
        layer.boxes.append(box)
        y += dy + 1
        col_width = max(col_width, dx)
    return layer
