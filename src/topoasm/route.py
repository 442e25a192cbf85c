"""Obstacle-aware shortest-path routing of connection segments.

A connection segment is planned as an axis-aligned lattice path between
two cells.  Cells are blocked by committed solid geometry and by
enabled obstacles.  Obstacles come in two kinds:

* ``guide`` obstacles apply to every segment computation while enabled
  and persist across task sets (they mostly fence off pool rails);
* ``occupy`` obstacles reserve territory for their owner: they block
  the segments computed before the owner's and evaporate afterwards.

Every obstacle stays in the spatial index from ``add`` to ``remove``;
switching it off or on only flips its flag, which blocked-cell queries
read; a cell is blocked while any enabled obstacle covers it.  A task
set is computed in strictly descending priority: disable the active
spec's own obstacles, plan, commit the path, re-enable the guides and
remove the occupies.  :func:`compute_taskset` returns each path with the
polyline its commit claimed, so callers draw exactly what was claimed.

Straight-run rule: when start and stop differ on one axis only, the
straight run between them is the unique shortest path.  If none of its
cells is blocked, :func:`plan_segment` returns it without a search;
otherwise A* runs on the same :class:`BlockedView`.  Either way the path
is the one A* would return.

Lazy blocked checks: A* pushes every neighbour that is neither settled
nor already rejected, untested, and asks the view about a cell only
when it pops it; a blocked cell is rejected there and never expanded.
The ``settled`` and ``rejected`` sets are the search's only record of
tested cells, so A* tests each cell at most once.
The heap key orders cells totally and a rejected entry leaves no trace,
so every free cell gets the same cost and parent, and is popped in the
same order, as under a check at push time: the path is unchanged, and
most neighbours, which are never popped, are never tested.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .geom import Box3, DefectPolyline, Point3, polyline_from_cells
from .spatial import BoxIndex, IndexEntry

GUIDE = "guide"
OCCUPY = "occupy"

SEG_C = "connection_c"  # pool -> circuit pin
SEG_B = "connection_b"  # box output -> pool rail
SEG_E = "connection_e"  # extension along a pool rail

SOLID_TAGS = ("circuit", "box", "connection")

# Fixed expansion order: t, x, y, negative direction first.
_NEIGHBOR_STEPS = ((-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1))


class RouteError(Exception):
    pass


class NoPathError(RouteError):
    """Start and stop are disconnected; carries the failing spec, the
    search bounds and the number of cells the search settled (0 when it
    never started), for the diagnosis journal."""

    def __init__(self, spec, detail: str = "", searched: int = 0, bounds: Box3 | None = None):
        super().__init__(f"no path for segment {describe_spec(spec)} {detail}".strip())
        self.spec = spec
        self.detail = detail
        self.searched = searched
        self.bounds = bounds


@dataclass
class Obstacle:
    oid: str
    kind: str  # guide | occupy
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
    polyline: DefectPolyline | None = None  # what the commit claimed, when committed

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def start(self) -> tuple[int, int, int]:
        return self.cells[0]

    @property
    def stop(self) -> tuple[int, int, int]:
        return self.cells[-1]


class ObstacleRegistry:
    """Owns all obstacles, each indexed from ``add`` until ``remove``;
    ``disable`` and ``enable`` only flip :attr:`Obstacle.enabled`."""

    def __init__(self, index: BoxIndex, journal=None):
        self.index = index
        self.journal = journal
        self.by_id: dict[str, Obstacle] = {}  # every obstacle not yet removed
        self._seq = itertools.count()

    def add(self, region: Box3, kind: str, priority: int, owner: str) -> Obstacle:
        """Index a new enabled obstacle; ``priority`` and ``owner`` go to the journal."""
        oid = f"obs{next(self._seq)}"
        obs = Obstacle(oid, kind)
        self.by_id[oid] = obs
        self.index.insert(IndexEntry(oid, region, "obstacle"))
        if self.journal:
            lo, hi = region.lo, region.hi
            self.journal.log(
                "obstacle-add", oid, kind, priority, owner,
                lo.t, lo.x, lo.y, hi.t, hi.x, hi.y,
            )
        return obs

    def get(self, oid: str) -> Obstacle:
        return self.by_id[oid]

    def disable(self, oid: str) -> None:
        self._switch(oid, False)

    def enable(self, oid: str) -> None:
        self._switch(oid, True)

    def _switch(self, oid: str, on: bool) -> None:
        obs = self.by_id[oid]
        if obs.enabled != on:
            obs.enabled = on
            if self.journal:
                self.journal.log("obstacle-on" if on else "obstacle-off", oid)

    def remove(self, oid: str) -> None:
        self._switch(oid, False)
        del self.by_id[oid]
        self.index.remove(oid)

    def blocks(self, eid: str) -> bool:
        """Whether index entry ``eid`` blocks: solids always, obstacles while enabled."""
        obs = self.by_id.get(eid)
        return obs is None or obs.enabled


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

    def is_free(self, box: Box3) -> bool:
        return not self.index.hits(box, tags=SOLID_TAGS)


class BlockedView:
    """Blocked-cell predicate for one segment computation: a cell is
    blocked when it lies outside ``bounds`` or a solid or an enabled
    obstacle covers it.  Every query reads the index; A* queries a cell
    when it pops it, not when it pushes it."""

    def __init__(self, world: World, bounds: Box3):
        self._index = world.index
        self._blocks = world.obstacles.blocks
        self._lo = bounds.lo.as_tuple()
        self._hi = bounds.hi.as_tuple()

    def is_blocked(self, cell: tuple[int, int, int]) -> bool:
        t, x, y = cell
        lo, hi = self._lo, self._hi
        return not (
            lo[0] <= t < hi[0] and lo[1] <= x < hi[1] and lo[2] <= y < hi[2]
        ) or any(map(self._blocks, self._index.covering(cell)))


def default_bounds(spec: SegmentSpec, margin: int) -> Box3:
    """The box spanning both endpoints, ``margin`` cells wider on every side."""
    a, b = spec.start, spec.stop
    return Box3(
        Point3(min(a.t, b.t) - margin, min(a.x, b.x) - margin, min(a.y, b.y) - margin),
        Point3(max(a.t, b.t) + margin + 1, max(a.x, b.x) + margin + 1, max(a.y, b.y) + margin + 1),
    )


def plan_segment(spec: SegmentSpec, world: World, bounds: Box3 | None = None,
                 margin: int = 10) -> Path:
    """Shortest axis-aligned path from start to stop under the blocked set.

    The heuristic is the exact L1 distance, so the search is admissible
    and the returned path length equals the L1 distance whenever nothing
    obstructs.  Ties break deterministically by axis order (t, x, y) and
    lexicographic cell order.  A free straight run is returned without a
    search (the straight-run rule above).  The spec's own obstacles must
    already be disabled (the task-set protocol does this).
    """
    if bounds is None:
        bounds = default_bounds(spec, margin)
    start = spec.start.as_tuple()
    stop = spec.stop.as_tuple()
    if not bounds.contains_cell(start) or not bounds.contains_cell(stop):
        raise NoPathError(spec, "endpoint outside search bounds", bounds=bounds)
    view = BlockedView(world, bounds)
    if view.is_blocked(start):
        raise NoPathError(spec, "start cell blocked", bounds=bounds)
    if view.is_blocked(stop):
        raise NoPathError(spec, "stop cell blocked", bounds=bounds)
    if start == stop:
        return Path((start,))
    run = _straight_run(start, stop)
    if run is not None and not any(map(view.is_blocked, run[1:-1])):
        return Path(run)

    def h(cell):
        return abs(cell[0] - stop[0]) + abs(cell[1] - stop[1]) + abs(cell[2] - stop[2])

    g = {start: 0}
    parent: dict = {}
    heap = [(h(start), h(start), start)]
    settled = set()  # expanded free cells
    rejected = set()  # popped cells found blocked
    while heap:
        f, _, cell = heapq.heappop(heap)
        if cell in settled or cell in rejected:
            continue
        if cell == stop:
            out = [cell]
            while cell != start:
                cell = parent[cell]
                out.append(cell)
            out.reverse()
            return Path(tuple(out))
        if view.is_blocked(cell):
            rejected.add(cell)
            continue
        settled.add(cell)
        base = g[cell]
        for dt, dx, dy in _NEIGHBOR_STEPS:
            nb = (cell[0] + dt, cell[1] + dx, cell[2] + dy)
            if nb in settled or nb in rejected:
                continue
            ng = base + 1
            if ng < g.get(nb, 1 << 30):
                g[nb] = ng
                parent[nb] = cell
                hb = h(nb)
                heapq.heappush(heap, (ng + hb, hb, nb))
    raise NoPathError(
        spec, f"searched {len(settled)} cells in {bounds.lo.as_tuple()}..{bounds.hi.as_tuple()}",
        searched=len(settled), bounds=bounds,
    )


def _straight_run(start, stop):
    """The cells from ``start`` to ``stop`` in order when the two differ on
    one axis only, else None."""
    axes = [i for i in range(3) if start[i] != stop[i]]
    if len(axes) != 1:
        return None
    axis = axes[0]
    step = 1 if stop[axis] > start[axis] else -1
    cells = []
    for v in range(start[axis], stop[axis] + step, step):
        cell = list(start)
        cell[axis] = v
        cells.append(tuple(cell))
    return tuple(cells)


def compute_taskset(specs: list[SegmentSpec], world: World, margin: int = 10) -> list[Path]:
    """Compute the segments of one event-handling pass under the obstacle
    protocol.

    Specs are processed in strictly descending priority.  For each spec:
    its own guide and occupy obstacles are disabled, the segment is
    planned, the path is committed to the world, the guide obstacles are
    re-enabled and the occupy obstacles are removed.  Committed paths are
    therefore mutually disjoint and disjoint from all prior geometry.
    Each returned path carries the polyline its commit claimed.
    """
    prios = [s.priority for s in specs]
    if len(set(prios)) != len(prios):
        raise RouteError(f"task set priorities must be distinct, got {sorted(prios)}")
    paths = []
    for spec in sorted(specs, key=lambda s: -s.priority):
        for oid in spec.obstacles:
            world.obstacles.disable(oid)
        path = plan_segment(spec, world, margin=margin)
        path.polyline = _commit_path(spec, path, world)
        for oid in spec.obstacles:
            if world.obstacles.get(oid).kind == GUIDE:
                world.obstacles.enable(oid)
            else:
                world.obstacles.remove(oid)
        paths.append(path)
    return paths


def _commit_path(spec: SegmentSpec, path: Path, world: World) -> DefectPolyline:
    """Claim the path's cells and return the polyline that covers them."""
    poly = polyline_from_cells(path.cells, "primal", spec.segment_class)
    seq = next(world._commit_seq)
    for i, box in enumerate(poly.claim_boxes()):
        world.claim(f"{spec.segment_class}.{spec.owner}.c{seq}.{i}", box, "connection")
    return poly
