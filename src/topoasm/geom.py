"""Integer space-time geometry for topological assemblies.

One lattice unit is one plumbing piece per axis.  A cell names the unit
cube whose low corner sits at integer ``(t, x, y)``; ``t`` is the time
axis, ``x`` and ``y`` are the two hardware axes.  Solid elements claim
cells, and the assembly cost is the extent product of the global
bounding box.

Conventions:

* Points and boxes are immutable tuples.  A ``Point3`` is the tuple
  ``(t, x, y)``, so a plain cell tuple equals its ``Point3``, orders
  like it and is the same dict or set key.  A ``Box3`` is the pair
  ``(lo, hi)`` of its corners.
* ``Box3`` is inclusive-exclusive (``lo`` inside, ``hi`` outside), so
  touching boxes do not overlap.
* Defect polylines store their turn points inclusively: a segment
  covers every cell between its two endpoints (endpoints included) and
  adjacent segments share exactly the turn cell.  A single-vertex
  polyline covers one cell.
* The wire corridor of circuit wire ``w`` runs along +t at
  ``x = ROW_PITCH * w, y = 0``.  CNOT templates occupy the plane
  ``y = 1`` just above the wire rows and span ``BRAID_DEPTH`` time
  slices.  These lattice conventions are fixed constants, and the
  helpers below are the only place that turns circuit wires and
  timesteps into coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

PRIMAL = "primal"
DUAL = "dual"

ROLE_CIRCUIT = "circuit"

ROW_PITCH = 2  # one free row between wire corridors
BRAID_DEPTH = 2  # time slices of a CNOT template
BOX_EXTENTS = {"A": (6, 4, 4), "Y": (4, 2, 2)}  # (t, x, y); the A box is the larger
BOX_DEPTH = max(dt for dt, _, _ in BOX_EXTENTS.values())  # deepest box along t


class GeometryError(Exception):
    pass


class TemplateCollisionError(GeometryError):
    """A fixed template landed on already-claimed cells."""


class Point3(NamedTuple):
    t: int
    x: int
    y: int

    def shifted(self, dt: int = 0, dx: int = 0, dy: int = 0) -> "Point3":
        return Point3(self.t + dt, self.x + dx, self.y + dy)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.t, self.x, self.y)


class Box3(tuple):
    """Axis-aligned box between two diagonal corners, lo inclusive, hi exclusive."""

    __slots__ = ()

    def __new__(cls, lo: Point3, hi: Point3) -> "Box3":
        if not (lo.t < hi.t and lo.x < hi.x and lo.y < hi.y):
            raise GeometryError(f"degenerate box {lo} .. {hi}")
        return tuple.__new__(cls, (lo, hi))

    def __getnewargs__(self) -> tuple[Point3, Point3]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Box3(lo={self[0]!r}, hi={self[1]!r})"

    lo = property(itemgetter(0))
    hi = property(itemgetter(1))

    @property
    def extents(self) -> tuple[int, int, int]:
        lo, hi = self
        return (hi.t - lo.t, hi.x - lo.x, hi.y - lo.y)

    def intersects(self, other: "Box3") -> bool:
        # Shared faces do not count as overlap.
        (lt, lx, ly), (ht, hx, hy) = self
        (olt, olx, oly), (oht, ohx, ohy) = other
        return lt < oht and olt < ht and lx < ohx and olx < hx and ly < ohy and oly < hy

    def inflated(self, dt: int, dx: int, dy: int) -> "Box3":
        lo, hi = self
        return Box3(lo.shifted(-dt, -dx, -dy), hi.shifted(dt, dx, dy))


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
    dt, dx, dy = a.t != b.t, a.x != b.x, a.y != b.y
    if dt + dx + dy != 1:
        raise GeometryError(f"segment {a} -> {b} is not axis-aligned")
    return 0 if dt else 1 if dx else 2


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

    def __len__(self) -> int:
        """The number of cells covered: the first vertex, plus each segment's length."""
        v = self.vertices
        return 1 + sum(abs(b.t - a.t) + abs(b.x - a.x) + abs(b.y - a.y) for a, b in zip(v, v[1:]))

    def claim_boxes(self) -> list[Box3]:
        """Disjoint unit-thickness boxes covering exactly this polyline's cells.

        One box per segment.  The first covers both of its ends; each later
        one starts a cell past the turn it shares with the segment before,
        so the turn cell is attributed to the earlier segment only.
        """
        v = self.vertices
        if len(v) == 1:
            return [cell_box(v[0])]
        boxes = []
        off = 0  # 1 past the first segment, which alone keeps its start
        for (at, ax, ay), (bt, bx, by) in zip(v, v[1:]):
            # Each axis's first and last cell; the ends differ on one axis only.
            lt, ht = (at + off, bt) if at < bt else (bt, at - off) if at > bt else (at, at)
            lx, hx = (ax + off, bx) if ax < bx else (bx, ax - off) if ax > bx else (ax, ax)
            ly, hy = (ay + off, by) if ay < by else (by, ay - off) if ay > by else (ay, ay)
            boxes.append(Box3(Point3(lt, lx, ly), Point3(ht + 1, hx + 1, hy + 1)))
            off = 1
        return boxes

    def extend_last(self, new_end: Point3) -> None:
        """Grow the polyline by moving its final vertex along the last axis;
        a single vertex gains a segment to ``new_end`` instead."""
        if len(self.vertices) == 1:
            _axis_of(self.vertices[0], new_end)
            self.vertices.append(new_end)
            return
        a, b = self.vertices[-2], self.vertices[-1]
        if _axis_of(a, new_end) != _axis_of(a, b):
            raise GeometryError(f"{new_end} is off the axis of segment {a} -> {b}")
        self.vertices[-1] = new_end


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

    def is_empty(self) -> bool:
        return not self.defects and not self.boxes


def global_bounding_box(g: GeometrySet) -> Box3:
    """Minimal box containing every defect segment and box footprint.

    One pass per axis over ints: a polyline's cells lie between its
    vertices, and a footprint's first and last cells are ``lo`` and
    ``hi - 1``.
    """
    if g.is_empty():
        raise GeometryError("empty geometry set has no bounding box")
    vertices = [v for poly in g.defects for v in poly.vertices]
    feet = [placed.footprint for placed in g.boxes]
    firsts = vertices + [lo for lo, _ in feet]
    lasts = vertices + [(t - 1, x - 1, y - 1) for _, (t, x, y) in feet]
    lo = [min(map(itemgetter(axis), firsts)) for axis in range(3)]
    hi = [max(map(itemgetter(axis), lasts)) + 1 for axis in range(3)]
    return Box3(Point3(*lo), Point3(*hi))


def wire_row(wire: int) -> int:
    """The x row of circuit wire ``wire``'s corridor."""
    return ROW_PITCH * wire


def template_rows(op) -> tuple[int, int]:
    """The (xl, xr) row span of a CNOT's template."""
    rows = (wire_row(op.control), wire_row(op.target))
    return min(rows), max(rows)


def pin_cell(magic) -> Point3:
    """The delivery cell of a magic input: its wire row at its timestep."""
    return Point3(magic.timestep, wire_row(magic.wire), 0)


def corridor_span(lifetime, open_end: int) -> tuple[int, int, int]:
    """The ``(row, first, end)`` of a wire lifetime's corridor, ``end``
    exclusive.  A magic input's corridor starts one timestep past its pin
    cell; a lifetime without an end runs to ``open_end``."""
    first = lifetime.start + 1 if lifetime.magic else lifetime.start
    end = lifetime.end if lifetime.end is not None else open_end
    return wire_row(lifetime.wire), first, end


class GeometryBuilder:
    """Incrementally emits the circuit's geometric description.

    Emission is idempotent and monotone: ``emit_until(h)`` materializes
    wire corridors for cells strictly below ``h``, instantiates the CNOT
    template for every CNOT whose timestep lies below ``h``, and
    registers a pin at each magic-input coordinate below ``h``.  The pin
    cell itself stays unclaimed; the connection that delivers the
    distilled state terminates on it.

    Each call touches only new work.  One cursor walks the lifetimes in
    (start, wire) order and opens each one that starts below ``h``; a
    magic lifetime registers its pin as it opens.  An open lifetime keeps
    one record, its corridor polyline (``None`` until the first cell),
    whose last vertex is the last cell emitted, and leaves once emitted
    to its end.  A second cursor walks the CNOTs in timestep order.
    """

    def __init__(self, circuit, geometry: GeometrySet, claim):
        self.circuit = circuit
        self.geometry = geometry
        self.claim = claim
        self.horizon = None  # exclusive bound of emitted cells
        self._lifetimes = circuit.lifetimes()  # in (start, wire) order
        self._next_lifetime = 0  # lifetimes before it have start < horizon
        self._magic = iter(circuit.magic_inputs)  # one per magic lifetime, in the same order
        self._open = {}  # lifetime index -> corridor polyline | None, ascending by index
        self._cnots = circuit.cnots()
        self._next_cnot = 0
        self._claim_seq = 0
        self._templates = self._plan_templates()

    def _plan_templates(self) -> dict:
        """Each CNOT's template vertices, with turn ends picked so the templates tile.

        The whole circuit footprint is known up front, so the trailing
        turn cell of every template can be placed on whichever row end
        stays clear of the other templates' rows and turns.
        """
        cnots = sorted(self._cnots, key=lambda o: (o.timestep, o.wires))
        occupied = set()
        for op in cnots:
            xl, xr = template_rows(op)
            occupied.update((op.timestep, x) for x in range(xl, xr + 1))
        templates = {}
        for op in cnots:
            t0, t1 = op.timestep, op.timestep + BRAID_DEPTH - 1
            xl, xr = template_rows(op)
            turn = next((x for x in (xr, xl) if (t1, x) not in occupied), None)
            if turn is None:
                turn = xr  # dense spot, left unmarked; the claim will flag it
            else:
                occupied.add((t1, turn))
            templates[op] = [Point3(t0, xl + xr - turn, 1), Point3(t0, turn, 1), Point3(t1, turn, 1)]
        return templates

    def _claim_box(self, name: str, box: Box3, tag: str) -> None:
        self._claim_seq += 1
        self.claim(f"{name}#{self._claim_seq}", box, tag)

    def emit_until(self, horizon: int) -> None:
        """Extend geometry to cover cells with t < horizon."""
        if self.horizon is not None and horizon < self.horizon:
            raise GeometryError("emission horizon moved backwards")
        self.horizon = horizon

        lifetimes = self._lifetimes
        while self._next_lifetime < len(lifetimes) and lifetimes[self._next_lifetime].start < horizon:
            self._open[self._next_lifetime] = None
            if lifetimes[self._next_lifetime].magic:
                magic = next(self._magic)
                self.geometry.pins.append((magic.key, pin_cell(magic)))
            self._next_lifetime += 1
        for idx, poly in list(self._open.items()):
            lt = lifetimes[idx]
            row, start, end = corridor_span(lt, horizon)
            target = min(horizon - 1, end - 1)
            emitted = start - 1 if poly is None else poly.vertices[-1].t
            if target > emitted:
                if poly is None:
                    poly = self._open[idx] = DefectPolyline(PRIMAL, ROLE_CIRCUIT, [Point3(start, row, 0)])
                    self.geometry.defects.append(poly)
                if target > start:
                    poly.extend_last(Point3(target, row, 0))
                self._claim_box(
                    f"wire{lt.wire}.{idx}",
                    Box3(Point3(emitted + 1, row, 0), Point3(target + 1, row + 1, 1)),
                    "circuit",
                )
            if lt.end is not None and target == end - 1:
                del self._open[idx]

        cnots = self._cnots
        while self._next_cnot < len(cnots) and cnots[self._next_cnot].timestep < horizon:
            self._emit_braid(cnots[self._next_cnot])
            self._next_cnot += 1

    def _emit_braid(self, op) -> None:
        # Fixed CNOT template: an L-shaped dual defect in the y=1 plane whose
        # bounding box spans both wire rows and BRAID_DEPTH time slices.  The
        # later slices carry only the planned turn cell, so templates of
        # nearby CNOTs tile densely before colliding.
        poly = DefectPolyline(DUAL, ROLE_CIRCUIT, self._templates.pop(op))
        self.geometry.defects.append(poly)
        for box in poly.claim_boxes():
            try:
                self._claim_box(f"braid.t{op.timestep}", box, "circuit")
            except Exception as exc:  # re-tag index collisions as template faults
                xl, xr = template_rows(op)
                raise TemplateCollisionError(
                    f"CNOT template at t={op.timestep} rows [{xl},{xr}] collides: {exc}"
                ) from exc
