"""Integer space-time geometry for topological assemblies.

One lattice unit is one plumbing piece per axis.  A cell names the unit
cube whose low corner sits at integer ``(t, x, y)``; ``t`` is the time
axis, ``x`` and ``y`` are the two hardware axes.  Solid elements claim
cells, and the assembly cost is the extent product of the global
bounding box.

Conventions:

* ``Box3`` is inclusive-exclusive (``lo`` inside, ``hi`` outside), so
  touching boxes do not overlap.
* Defect polylines store their turn points inclusively: a segment
  covers every cell between its two endpoints (endpoints included) and
  adjacent segments share exactly the turn cell.  A single-vertex
  polyline covers one cell.
* The wire corridor of circuit wire ``w`` runs along +t at
  ``x = row_pitch * w, y = 0``.  CNOT templates occupy the plane
  ``y = 1`` just above the wire rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PRIMAL = "primal"
DUAL = "dual"

ROLE_CIRCUIT = "circuit"


class GeometryError(Exception):
    pass


class TemplateCollisionError(GeometryError):
    """A fixed template landed on already-claimed cells (layout pitch too tight)."""


@dataclass(frozen=True, order=True)
class Point3:
    t: int
    x: int
    y: int

    def shifted(self, dt: int = 0, dx: int = 0, dy: int = 0) -> "Point3":
        return Point3(self.t + dt, self.x + dx, self.y + dy)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.t, self.x, self.y)


@dataclass(frozen=True)
class Box3:
    """Axis-aligned box between two diagonal corners, lo inclusive, hi exclusive."""

    lo: Point3
    hi: Point3

    def __post_init__(self) -> None:
        if not (self.lo.t < self.hi.t and self.lo.x < self.hi.x and self.lo.y < self.hi.y):
            raise GeometryError(f"degenerate box {self.lo} .. {self.hi}")

    @property
    def extents(self) -> tuple[int, int, int]:
        return (self.hi.t - self.lo.t, self.hi.x - self.lo.x, self.hi.y - self.lo.y)

    def intersects(self, other: "Box3") -> bool:
        # Shared faces do not count as overlap.
        return (
            self.lo.t < other.hi.t and other.lo.t < self.hi.t
            and self.lo.x < other.hi.x and other.lo.x < self.hi.x
            and self.lo.y < other.hi.y and other.lo.y < self.hi.y
        )

    def contains_cell(self, cell: tuple[int, int, int]) -> bool:
        t, x, y = cell
        return (
            self.lo.t <= t < self.hi.t
            and self.lo.x <= x < self.hi.x
            and self.lo.y <= y < self.hi.y
        )

    def cells(self):
        for t in range(self.lo.t, self.hi.t):
            for x in range(self.lo.x, self.hi.x):
                for y in range(self.lo.y, self.hi.y):
                    yield (t, x, y)

    def translated(self, dt: int = 0, dx: int = 0, dy: int = 0) -> "Box3":
        return Box3(self.lo.shifted(dt, dx, dy), self.hi.shifted(dt, dx, dy))

    def inflated(self, dt: int, dx: int, dy: int) -> "Box3":
        return Box3(self.lo.shifted(-dt, -dx, -dy), self.hi.shifted(dt, dx, dy))


def box_from_extents(lo: Point3, extents: tuple[int, int, int]) -> Box3:
    dt, dx, dy = extents
    return Box3(lo, lo.shifted(dt, dx, dy))


def cell_box(cell: tuple[int, int, int]) -> Box3:
    t, x, y = cell
    return Box3(Point3(t, x, y), Point3(t + 1, x + 1, y + 1))


def merge_boxes(a: Box3, b: Box3) -> Box3:
    return Box3(
        Point3(min(a.lo.t, b.lo.t), min(a.lo.x, b.lo.x), min(a.lo.y, b.lo.y)),
        Point3(max(a.hi.t, b.hi.t), max(a.hi.x, b.hi.x), max(a.hi.y, b.hi.y)),
    )


def plumbing_volume(box: Box3) -> int:
    """Number of plumbing pieces needed to fill the box."""
    dt, dx, dy = box.extents
    return dt * dx * dy


def _axis_of(a: Point3, b: Point3) -> int:
    diffs = [i for i, (u, v) in enumerate(zip(a.as_tuple(), b.as_tuple())) if u != v]
    if len(diffs) != 1:
        raise GeometryError(f"segment {a} -> {b} is not axis-aligned")
    return diffs[0]


@dataclass
class DefectPolyline:
    """A connected chain of axis-aligned defect segments.

    ``vertices`` are cell coordinates; consecutive vertices differ on
    exactly one axis and each pair spans one straight segment.  A single
    vertex denotes a one-cell defect.
    """

    kind: str
    role: str
    vertices: list[Point3]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise GeometryError("empty polyline")
        for a, b in zip(self.vertices, self.vertices[1:]):
            _axis_of(a, b)  # raises on diagonal or zero-length segments

    def segments(self) -> list[tuple[Point3, Point3]]:
        return list(zip(self.vertices, self.vertices[1:]))

    def cells(self) -> set[tuple[int, int, int]]:
        out = {self.vertices[0].as_tuple()}
        for a, b in self.segments():
            axis = _axis_of(a, b)
            at, bt = a.as_tuple(), b.as_tuple()
            lo, hi = min(at[axis], bt[axis]), max(at[axis], bt[axis])
            for v in range(lo, hi + 1):
                cell = list(at)
                cell[axis] = v
                out.add(tuple(cell))
        return out

    def claim_boxes(self) -> list[Box3]:
        """Disjoint unit-thickness boxes covering exactly this polyline's cells.

        The shared turn cell between two segments is attributed to the
        earlier segment only.
        """
        if len(self.vertices) == 1:
            return [cell_box(self.vertices[0].as_tuple())]
        boxes = []
        claimed_ends: set[tuple[int, int, int]] = set()
        for a, b in self.segments():
            axis = _axis_of(a, b)
            at, bt = a.as_tuple(), b.as_tuple()
            lo, hi = min(at[axis], bt[axis]), max(at[axis], bt[axis])
            # Drop whichever end cell was already claimed by the previous segment.
            if at in claimed_ends:
                if at[axis] == lo:
                    lo += 1
                else:
                    hi -= 1
            if lo > hi:
                claimed_ends = {at, bt}
                continue
            lo_cell = list(at)
            hi_cell = list(at)
            lo_cell[axis] = lo
            hi_cell[axis] = hi + 1
            hi_cell = [c + (1 if i != axis else 0) for i, c in enumerate(hi_cell)]
            boxes.append(Box3(Point3(*lo_cell), Point3(*hi_cell)))
            claimed_ends = {at, bt}
        return boxes

    def bounding_box(self) -> Box3:
        box = cell_box(self.vertices[0].as_tuple())
        for v in self.vertices[1:]:
            box = merge_boxes(box, cell_box(v.as_tuple()))
        return box

    def extend_last(self, new_end: Point3) -> None:
        """Grow the polyline by moving its final vertex along the last axis."""
        if len(self.vertices) == 1:
            _axis_of(self.vertices[0], new_end)
            self.vertices.append(new_end)
            return
        a, b = self.vertices[-2], self.vertices[-1]
        if _axis_of(a, b) != _axis_of(a, new_end):
            self.vertices.append(new_end)
        else:
            self.vertices[-1] = new_end


def polyline_from_cells(cells, kind: str, role: str) -> DefectPolyline:
    """Collapse an adjacent cell path into a polyline of turn points."""
    pts = [Point3(*c) for c in cells]
    if not pts:
        raise GeometryError("empty cell path")
    vertices = [pts[0]]
    run_axis = None
    for prev, cur in zip(pts, pts[1:]):
        axis = _axis_of(prev, cur)
        if abs(cur.as_tuple()[axis] - prev.as_tuple()[axis]) != 1:
            raise GeometryError("cells are not adjacent")
        if axis == run_axis:
            vertices[-1] = cur
        else:
            vertices.append(cur)
            run_axis = axis
    return DefectPolyline(kind, role, vertices)


@dataclass
class PlacedBox:
    """A distillation box committed to the space-time volume."""

    box_id: str
    kind: str  # "A" | "Y"
    footprint: Box3
    port: Point3  # delivery cell just past the +t face


@dataclass
class GeometrySet:
    """Everything the synthesizer has materialized so far."""

    defects: list[DefectPolyline] = field(default_factory=list)
    boxes: list[PlacedBox] = field(default_factory=list)
    pins: list[tuple[str, Point3]] = field(default_factory=list)

    def iter_solid_cells(self):
        """Yield (cell, owner) for every claimed cell; owners may repeat a cell
        only if the geometry is broken."""
        for i, poly in enumerate(self.defects):
            for cell in poly.cells():
                yield cell, f"defect{i}"
        for box in self.boxes:
            for cell in box.footprint.cells():
                yield cell, box.box_id

    def is_empty(self) -> bool:
        return not self.defects and not self.boxes


def global_bounding_box(g: GeometrySet) -> Box3:
    """Minimal box containing every defect segment and box footprint."""
    if g.is_empty():
        raise GeometryError("empty geometry set has no bounding box")
    box = None
    for poly in g.defects:
        b = poly.bounding_box()
        box = b if box is None else merge_boxes(box, b)
    for placed in g.boxes:
        box = placed.footprint if box is None else merge_boxes(box, placed.footprint)
    return box


@dataclass(frozen=True)
class LayoutConfig:
    """Lattice pitches and template dimensions.

    Extent tuples are (t, x, y).  The defaults keep one free row between
    wire corridors and place the A box larger than the Y box.
    """

    row_pitch: int = 2
    braid_depth: int = 2
    a_box_extents: tuple[int, int, int] = (6, 4, 4)
    y_box_extents: tuple[int, int, int] = (4, 2, 2)
    spiral_gap: int = 1
    max_rings: int = 48
    route_margin: int = 10
    alap_wall_height: int = 32
    alap_wall_floor: int = -2

    def wire_row(self, wire: int) -> int:
        return self.row_pitch * wire

    def box_extents(self, kind: str) -> tuple[int, int, int]:
        return self.a_box_extents if kind == "A" else self.y_box_extents


class GeometryBuilder:
    """Incrementally emits the circuit's geometric description.

    Emission is idempotent and monotone: ``emit_until(h)`` materializes
    wire corridors for cells strictly below ``h``, instantiates the CNOT
    template for every CNOT whose timestep lies below ``h``, and
    registers a pin at each magic-input coordinate below ``h``.  The pin
    cell itself stays unclaimed; the connection that delivers the
    distilled state terminates on it.
    """

    def __init__(self, circuit, layout: LayoutConfig, geometry: GeometrySet, claim=None):
        self.circuit = circuit
        self.layout = layout
        self.geometry = geometry
        self.claim = claim or (lambda eid, box, tag: None)
        self.horizon = None  # exclusive bound of emitted cells
        self._corridors = {}  # lifetime index -> (polyline | None, emitted_to_cell)
        self._braids_done = set()
        self._pins_done = set()
        self._lifetimes = circuit.lifetimes()
        self._claim_seq = 0
        self._turns = self._plan_braid_turns()

    def _plan_braid_turns(self) -> dict:
        """Pick each CNOT template's turn end so the templates tile.

        The whole circuit footprint is known up front, so the trailing
        turn cell of every template can be placed on whichever row end
        stays clear of the other templates' rows and turns.
        """
        depth = self.layout.braid_depth
        cnots = sorted(self.circuit.cnots(), key=lambda o: (o.timestep, o.wires))
        occupied = set()
        for op in cnots:
            xl = min(self.layout.wire_row(op.control), self.layout.wire_row(op.target))
            xr = max(self.layout.wire_row(op.control), self.layout.wire_row(op.target))
            occupied.update((op.timestep, x) for x in range(xl, xr + 1))
        turns = {}
        for op in cnots:
            if depth < 2:
                continue
            key = (op.timestep, op.control, op.target)
            xl = min(self.layout.wire_row(op.control), self.layout.wire_row(op.target))
            xr = max(self.layout.wire_row(op.control), self.layout.wire_row(op.target))
            t1 = op.timestep + depth - 1
            for x in (xr, xl):
                if (t1, x) not in occupied:
                    turns[key] = x
                    occupied.add((t1, x))
                    break
            else:
                turns[key] = xr  # dense spot; the claim will flag it
        return turns

    def _claim_box(self, name: str, box: Box3, tag: str) -> None:
        self._claim_seq += 1
        self.claim(f"{name}#{self._claim_seq}", box, tag)

    def emit_until(self, horizon: int):
        """Extend geometry to cover cells with t < horizon; returns new pins."""
        if self.horizon is not None and horizon < self.horizon:
            raise GeometryError("emission horizon moved backwards")
        prev = self.horizon if self.horizon is not None else horizon
        self.horizon = max(horizon, prev)

        new_pins = []
        for idx, lt in enumerate(self._lifetimes):
            row = self.layout.wire_row(lt.wire)
            start = lt.start + 1 if lt.magic else lt.start
            end_cell = (lt.end - 1) if lt.end is not None else horizon - 1
            target = min(horizon - 1, end_cell)
            poly, emitted = self._corridors.get(idx, (None, None))
            if target < start:
                continue
            if poly is None:
                if target == start:
                    poly = DefectPolyline(PRIMAL, ROLE_CIRCUIT, [Point3(start, row, 0)])
                else:
                    poly = DefectPolyline(
                        PRIMAL, ROLE_CIRCUIT, [Point3(start, row, 0), Point3(target, row, 0)]
                    )
                self.geometry.defects.append(poly)
                self._claim_box(
                    f"wire{lt.wire}.{idx}",
                    Box3(Point3(start, row, 0), Point3(target + 1, row + 1, 1)),
                    "circuit",
                )
                self._corridors[idx] = (poly, target)
            elif target > emitted:
                poly.extend_last(Point3(target, row, 0))
                self._claim_box(
                    f"wire{lt.wire}.{idx}",
                    Box3(Point3(emitted + 1, row, 0), Point3(target + 1, row + 1, 1)),
                    "circuit",
                )
                self._corridors[idx] = (poly, target)

        for op in self.circuit.cnots():
            key = (op.timestep, op.control, op.target)
            if op.timestep >= horizon or key in self._braids_done:
                continue
            self._emit_braid(op)
            self._braids_done.add(key)

        for magic in self.circuit.magic_inputs:
            if magic.timestep >= horizon or magic.key in self._pins_done:
                continue
            pin = Point3(magic.timestep, self.layout.wire_row(magic.wire), 0)
            self.geometry.pins.append((magic.key, pin))
            self._pins_done.add(magic.key)
            new_pins.append((magic.key, pin))
        return new_pins

    def _emit_braid(self, op) -> None:
        # Fixed CNOT template: an L-shaped dual defect in the y=1 plane whose
        # bounding box spans both wire rows and braid_depth time slices.  The
        # later slices carry only the planned turn cell, so templates of
        # nearby CNOTs tile densely before colliding.
        t0 = op.timestep
        xl = min(self.layout.wire_row(op.control), self.layout.wire_row(op.target))
        xr = max(self.layout.wire_row(op.control), self.layout.wire_row(op.target))
        t1 = t0 + self.layout.braid_depth - 1
        turn = self._turns.get((t0, op.control, op.target))
        if turn is None:
            vertices = [Point3(t0, xl, 1), Point3(t0, xr, 1)]
        elif turn == xl:
            vertices = [Point3(t0, xr, 1), Point3(t0, xl, 1), Point3(t1, xl, 1)]
        else:
            vertices = [Point3(t0, xl, 1), Point3(t0, xr, 1), Point3(t1, turn, 1)]
        poly = DefectPolyline(DUAL, ROLE_CIRCUIT, vertices)
        self.geometry.defects.append(poly)
        for box in poly.claim_boxes():
            try:
                self._claim_box(f"braid.t{t0}", box, "circuit")
            except Exception as exc:  # re-tag index collisions as template faults
                raise TemplateCollisionError(
                    f"CNOT template at t={t0} rows [{xl},{xr}] collides: {exc}"
                ) from exc
