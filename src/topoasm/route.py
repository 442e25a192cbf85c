"""Obstacle-aware shortest-path routing of connection segments.

A connection segment is planned as an axis-aligned lattice path between
two cells.  Cells are blocked by committed solid geometry and by
enabled obstacles.  Obstacles come in two kinds:

* ``guide`` obstacles apply to every segment computation while enabled
  and persist across task sets (they mostly fence off pool rails);
* ``occupy`` obstacles reserve territory for their owner: they block
  the segments computed before the owner's and evaporate afterwards.

Segment computation inside one task set follows a fixed protocol in
strictly descending priority: disable the active spec's own obstacles,
plan, commit the path to the world, then re-enable only the guide
obstacles.  Where enabled obstacles overlap, the one with the lowest
priority number governs the cell, and any guide outranks any occupy
(:meth:`ObstacleRegistry.governing`).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from .geom import Box3, Point3, cell_box, merge_boxes, polyline_from_cells
from .spatial import BoxIndex, IndexEntry

GUIDE = "guide"
OCCUPY = "occupy"

SEG_C = "connection_c"  # pool -> circuit pin
SEG_B = "connection_b"  # box output -> pool rail
SEG_E = "connection_e"  # extension along a pool rail

SOLID_TAGS = ("circuit", "box", "connection", "pool")

# Fixed expansion order: t, x, y, negative direction first.
_NEIGHBOR_STEPS = ((-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1))


class RouteError(Exception):
    pass


class NoPathError(RouteError):
    """Start and stop are disconnected; carries the failing spec and a
    snapshot of what blocked the search, for the diagnosis journal."""

    def __init__(self, spec, detail: str = ""):
        super().__init__(f"no path for segment {describe_spec(spec)} {detail}".strip())
        self.spec = spec
        self.detail = detail


@dataclass
class Obstacle:
    oid: str
    region: Box3
    kind: str  # guide | occupy
    priority: int
    owner: str  # owning connection id
    enabled: bool = True


def describe_spec(spec) -> str:
    return f"{spec.segment_class}[{spec.owner}] {spec.start.as_tuple()}->{spec.stop.as_tuple()} pi={spec.priority}"


@dataclass
class SegmentSpec:
    """One connection segment to compute: endpoints, owned obstacles, priority."""

    start: Point3
    stop: Point3
    obstacles: tuple = ()  # obstacle ids owned by this spec (disabled while planning)
    priority: int = 0
    segment_class: str = SEG_C
    owner: str = ""


@dataclass
class Path:
    cells: tuple

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def start(self) -> tuple[int, int, int]:
        return self.cells[0]

    @property
    def stop(self) -> tuple[int, int, int]:
        return self.cells[-1]


class ObstacleRegistry:
    """Owns all obstacles and mirrors the enabled ones into the index."""

    def __init__(self, index: BoxIndex, journal=None):
        self.index = index
        self.journal = journal
        self._obstacles: dict[str, Obstacle] = {}
        self._seq = itertools.count()

    def add(self, region: Box3, kind: str, priority: int, owner: str) -> Obstacle:
        oid = f"obs{next(self._seq)}"
        obs = Obstacle(oid, region, kind, priority, owner, enabled=True)
        self._obstacles[oid] = obs
        self.index.insert(IndexEntry(oid, region, "obstacle"))
        if self.journal:
            lo, hi = region.lo, region.hi
            self.journal.log(
                "obstacle-add", oid, kind, priority, owner,
                lo.t, lo.x, lo.y, hi.t, hi.x, hi.y,
            )
        return obs

    def get(self, oid: str) -> Obstacle:
        return self._obstacles[oid]

    def disable(self, oid: str) -> None:
        obs = self._obstacles[oid]
        if obs.enabled:
            obs.enabled = False
            self.index.remove(oid)
            if self.journal:
                self.journal.log("obstacle-off", oid)

    def enable(self, oid: str) -> None:
        obs = self._obstacles[oid]
        if not obs.enabled:
            obs.enabled = True
            self.index.insert(IndexEntry(oid, obs.region, "obstacle"))
            if self.journal:
                self.journal.log("obstacle-on", oid)

    def remove(self, oid: str) -> None:
        obs = self._obstacles.pop(oid)
        if obs.enabled:
            self.index.remove(oid)
            if self.journal:
                self.journal.log("obstacle-off", oid)

    def enabled_obstacles(self) -> list[Obstacle]:
        return [o for o in self._obstacles.values() if o.enabled]

    def governing(self, cell: tuple[int, int, int]) -> Obstacle | None:
        """The enabled obstacle that rules ``cell``, or None: guides outrank
        occupies, then the lowest priority number wins."""
        hits = self.index.hits(cell_box(cell), tags=("obstacle",))
        cover = [self._obstacles[oid] for oid in hits]
        if not cover:
            return None
        guides = [o for o in cover if o.kind == GUIDE]
        return min(guides or cover, key=lambda o: (o.priority, o.oid))


class World:
    """Shared picture of the space-time volume: solids plus obstacles."""

    def __init__(self, journal=None):
        self.index = BoxIndex()
        self.journal = journal
        self.obstacles = ObstacleRegistry(self.index, journal)
        self._commit_seq = itertools.count()

    def claim(self, eid: str, box: Box3, tag: str) -> None:
        """Commit solid cells; claiming over existing solids is a hard fault."""
        clash = self.index.hits(box, tags=SOLID_TAGS)
        if clash:
            raise RouteError(f"claim {eid} overlaps {sorted(clash)}")
        self.index.insert(IndexEntry(eid, box, tag))
        if self.journal:
            lo, hi = box.lo, box.hi
            self.journal.log("claim", tag, eid, lo.t, lo.x, lo.y, hi.t, hi.x, hi.y)

    def solid_hits(self, probe: Box3) -> set[str]:
        return self.index.hits(probe, tags=SOLID_TAGS)

    def is_free(self, box: Box3) -> bool:
        return not self.index.hits(box, tags=SOLID_TAGS)


class BlockedView:
    """Blocked-cell predicate for one segment computation.

    A cell is blocked when solid geometry or an enabled obstacle covers
    it; the index holds exactly the enabled obstacles.
    """

    def __init__(self, world: World, bounds: Box3):
        self._blocked: set[tuple[int, int, int]] = set()
        for eid in world.index.hits(bounds):
            self._blocked.update(_clipped_cells(world.index.get(eid).box, bounds))

    def is_blocked(self, cell: tuple[int, int, int]) -> bool:
        return cell in self._blocked


def _clipped_cells(box: Box3, bounds: Box3):
    lo_t, hi_t = max(box.lo.t, bounds.lo.t), min(box.hi.t, bounds.hi.t)
    lo_x, hi_x = max(box.lo.x, bounds.lo.x), min(box.hi.x, bounds.hi.x)
    lo_y, hi_y = max(box.lo.y, bounds.lo.y), min(box.hi.y, bounds.hi.y)
    for t in range(lo_t, hi_t):
        for x in range(lo_x, hi_x):
            for y in range(lo_y, hi_y):
                yield (t, x, y)


def default_bounds(spec: SegmentSpec, margin: int) -> Box3:
    envelope = merge_boxes(cell_box(spec.start.as_tuple()), cell_box(spec.stop.as_tuple()))
    return envelope.inflated(margin, margin, margin)


def plan_segment(spec: SegmentSpec, world: World, bounds: Box3 | None = None,
                 margin: int = 10) -> Path:
    """Shortest axis-aligned path from start to stop under the blocked set.

    The heuristic is the exact L1 distance, so the search is admissible
    and the returned path length equals the L1 distance whenever nothing
    obstructs.  Ties break deterministically by axis order (t, x, y) and
    lexicographic cell order.  The spec's own obstacles must already be
    disabled (the task-set protocol does this).
    """
    if bounds is None:
        bounds = default_bounds(spec, margin)
    start = spec.start.as_tuple()
    stop = spec.stop.as_tuple()
    if not bounds.contains_cell(start) or not bounds.contains_cell(stop):
        raise NoPathError(spec, "endpoint outside search bounds")
    view = BlockedView(world, bounds)
    if view.is_blocked(start):
        raise NoPathError(spec, "start cell blocked")
    if view.is_blocked(stop):
        raise NoPathError(spec, "stop cell blocked")
    if start == stop:
        return Path((start,))

    def h(cell):
        return abs(cell[0] - stop[0]) + abs(cell[1] - stop[1]) + abs(cell[2] - stop[2])

    g = {start: 0}
    parent: dict = {}
    heap = [(h(start), h(start), start)]
    settled = set()
    while heap:
        f, _, cell = heapq.heappop(heap)
        if cell in settled:
            continue
        if cell == stop:
            out = [cell]
            while cell != start:
                cell = parent[cell]
                out.append(cell)
            out.reverse()
            return Path(tuple(out))
        settled.add(cell)
        base = g[cell]
        for dt, dx, dy in _NEIGHBOR_STEPS:
            nb = (cell[0] + dt, cell[1] + dx, cell[2] + dy)
            if nb in settled or not bounds.contains_cell(nb):
                continue
            if view.is_blocked(nb):
                continue
            ng = base + 1
            if ng < g.get(nb, 1 << 30):
                g[nb] = ng
                parent[nb] = cell
                hb = h(nb)
                heapq.heappush(heap, (ng + hb, hb, nb))
    raise NoPathError(spec, f"searched {len(settled)} cells in {bounds.lo.as_tuple()}..{bounds.hi.as_tuple()}")


@dataclass
class TaskSet:
    """Connection segments pending in one event-handling pass."""

    specs: list = field(default_factory=list)

    def add(self, spec: SegmentSpec) -> None:
        self.specs.append(spec)


def compute_taskset(taskset: TaskSet, world: World, margin: int = 10) -> list[Path]:
    """Compute every segment of a task set under the obstacle protocol.

    Specs are processed in strictly descending priority.  For each spec:
    its own guide and occupy obstacles are disabled, the segment is
    planned, the path is committed to the world, and only the guide
    obstacles are re-enabled.  Committed paths are therefore mutually
    disjoint and disjoint from all prior geometry.
    """
    prios = [s.priority for s in taskset.specs]
    if len(set(prios)) != len(prios):
        raise RouteError(f"task set priorities must be distinct, got {sorted(prios)}")
    paths = []
    for spec in sorted(taskset.specs, key=lambda s: -s.priority):
        for oid in spec.obstacles:
            world.obstacles.disable(oid)
        path = plan_segment(spec, world, margin=margin)
        _commit_path(spec, path, world)
        for oid in spec.obstacles:
            if world.obstacles.get(oid).kind == GUIDE:
                world.obstacles.enable(oid)
        paths.append(path)
    return paths


def _commit_path(spec: SegmentSpec, path: Path, world: World) -> None:
    poly = polyline_from_cells(path.cells, "primal", spec.segment_class)
    seq = next(world._commit_seq)
    for i, box in enumerate(poly.claim_boxes()):
        world.claim(f"{spec.segment_class}.{spec.owner}.c{seq}.{i}", box, "connection")
