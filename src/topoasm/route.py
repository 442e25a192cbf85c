"""Obstacle-aware shortest-path routing of connection segments.

A connection segment is planned as an axis-aligned lattice path between
two cells.  Cells are blocked by committed solid geometry and by
enabled obstacles.  Obstacles come in two kinds:

* ``guide`` obstacles apply to every segment computation while enabled
  and persist across task sets (they mostly fence off pool rails);
* ``occupy`` obstacles reserve territory for their owner: they block
  the segments computed before the owner's and evaporate afterwards.

Every obstacle stays counted in the spatial index from ``add`` to
``remove``, in its bucket planes or, when it is long and thin, as t
spans of its ``(x, y)`` columns; switching it off or on only flips its
flag and logs the switch.  A search reads only its spec: a cell is
blocked while its solid bit is set or its obstacle count, planes plus
column spans, exceeds the number of the spec's own obstacles that
contain it, which are exempt whatever their flags.  A task set is
computed in strictly descending priority: disable the active spec's own
obstacles, plan, commit the path, re-enable the guides and remove the
occupies; a rail run is claimed outside any task set and only logs
those switches (below).  So while a search runs, the obstacles switched
off are exactly the ones its spec exempts.  A search returns its path as
the :class:`DefectPolyline` of its turn cells, and that polyline is
committed as is, one claim box per straight run: :func:`compute_taskset`
returns those polylines, so callers draw exactly what was claimed.

Rail runs: a ``connection_e`` segment only lengthens a connection along
its own pool rail, from ``first`` to ``last`` in t at the rail's ``x, y``,
and its segment is that straight run.  It is no task-set spec:
:func:`claim_run` logs its ``claim`` line and adds it to the rail's
pending stretch in the world, with no search, no spec, no polyline and
no index insert, and the caller draws it.  A stretch turns solid as one
box when :meth:`World.flush` is called for its rail, which the engine
does at two points only: its holder's sweep and the end of synthesis.
Until then three fences keep the stretch free: every spec but a box link
sees the rail's line guide; the holder's forward guard fences
``anchor_t + 1 ..`` on the line and the strip under it, and a box link's
spec does not exempt it, so a link sees its own rail's runs as blocked;
and a rail is granted again only after its last holder is swept, its
stretch flushed and its forward guard removed.  No placement probe
reaches a rail cell either.  A solid on a run fails loudly at the
flush, named after the stretch's first run.  The
run's own obstacles, that line guide and forward guard, are not
switched: no search reads the blocked set around the run.  Between task
sets no obstacle is disabled, so both are enabled, and
:meth:`ObstacleRegistry.log_switches` writes the ``obstacle-off`` lines
before the ``claim`` line and the ``obstacle-on`` lines after it that
switching them would write; those lines are part of the ``--journal``
export.  A rail's runs are contiguous: each starts one cell past its
connection's stretch, and a rail is granted again only after its
holder's stretch is flushed, so a run that does not continue its rail's
pending stretch is a :class:`RouteError`.

Lazy blocked checks: A* pushes every neighbour not yet queued,
untested, and asks the view about a cell only when it pops it; a
blocked cell is dropped there and never expanded.  A cell is queued at
most once, so it is tested at most once, and most neighbours, which
are never popped, are never tested.

Open list by f level: a step keeps ``f = g + h`` or raises it by two, so
only levels ``f`` and ``f + 2`` are ever open.  The current level is a
list of cells sorted by ``(h, cell)`` descending, popped from its end.
A level opens with one sort of its seeds, ``start`` or the previous
level's steps away, keyed by their L1 distance to ``stop``; no ``h`` is
kept while it drains.  The popped cell is the least queued, so each of
its steps towards ``stop`` (at most one per axis) has ``h`` one below
every queued cell's, and pushing them in descending cell order,
``t + 1``, ``x + 1``, the y step, ``x - 1``, ``t - 1``, keeps the
list sorted.  An expanded cell is appended to ``expanded``, the level's
expanded cells in pop order.  When the list runs dry, a walk over
``expanded`` makes each cell's steps away from ``stop``; each one not
yet queued gets that cell as its parent and joins the list, whose sort
opens level ``f + 2``.  Most searches end at their first level and never
make a step away.  A level is drained before the next opens, so no
queued cell can later get a cheaper path: ``parent``, seeded with
``start``, marks every queued cell and is the only push test, in place
of a ``g`` map and a set of popped cells.  The pop order is that of one
heap keyed ``(f, h, cell)``: within a level, ``(h, cell)`` orders cells
the same way; every step away into one cell carries the same ``g``, so
the first in pop order is the first push with the least ``g``; and a
cell reached at the current level by a step towards ``stop`` is queued,
and so skipped, before the level switches.  Making the steps away at the
switch rather than at each pop changes no parent: a step away already
queued when its cell was popped is still queued at the switch, since
``parent`` only grows, and the others come in the same order, the pop
order of their cells.  The order of one cell's steps away does not
matter, because the sort's keys are unique.  Every free cell thus gets
the same parent, and the path is the one a check at push time would
give.  The ``searched`` count in a :class:`NoPathError`'s message is the
number of expanded cells summed over the drained levels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .geom import PRIMAL, Box3, DefectPolyline, Point3
from .spatial import LOW, SHIFT, T_SHIFT, BoxIndex, SolidOverlapError

GUIDE = "guide"
OCCUPY = "occupy"

SEG_C = "connection_c"  # pool -> circuit pin
SEG_B = "connection_b"  # box output -> pool rail
SEG_E = "connection_e"  # extension along a pool rail

SEARCH_MARGIN = 10  # cells a segment's search box reaches past its endpoints


class RouteError(Exception):
    pass


class NoPathError(RouteError):
    """Start and stop are disconnected; carries the failing spec for the
    diagnosis journal, and its message says why."""

    def __init__(self, spec, reason: str):
        super().__init__(f"no path for segment {describe_spec(spec)} {reason}")
        self.spec = spec


class Journal:
    """Append-only diagnosis log of `<step> <op> <args...>` lines.  Each call
    site formats its `<op> <args...>` in one f-string, one space between
    non-empty fields; :meth:`log` prefixes the step, one call per line."""

    def __init__(self):
        self.lines: list[str] = []
        self.step = 0

    def log(self, text: str) -> None:
        self.lines.append(f"{self.step} {text}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


@dataclass
class Obstacle:
    """A live obstacle: its index entry from ``add`` until ``remove``."""

    id: str
    kind: str  # guide | occupy
    box: Box3
    enabled: bool = True


def describe_spec(spec) -> str:
    return f"{spec.segment_class}[{spec.owner}] {spec.start.as_tuple()}->{spec.stop.as_tuple()} pi={spec.priority}"


@dataclass
class SegmentSpec:
    """One connection segment to compute: endpoints, owned obstacles, priority."""

    start: Point3
    stop: Point3
    obstacles: tuple = ()  # ids owned by this spec: off for its search
    priority: int = 0
    segment_class: str = SEG_C
    owner: str = ""


class ObstacleRegistry:
    """Owns all obstacles, each one :class:`Obstacle` record in the index
    from ``add`` until ``remove``; ``disable`` and ``enable`` only flip
    :attr:`Obstacle.enabled`, the one on/off record, and log the switch.
    No search reads the flag: a spec's own obstacles are exempt from its
    search (:class:`BlockedView`)."""

    def __init__(self, index: BoxIndex, journal: Journal):
        self.index = index
        self.journal = journal
        self._seq = itertools.count()

    def add(self, region: Box3, kind: str, priority: int, owner: str) -> str:
        """Index a new enabled obstacle and return its id; ``priority`` and
        ``owner`` go to the journal."""
        oid = f"obs{next(self._seq)}"
        self.index.insert(Obstacle(oid, kind, region))
        lo, hi = region.lo, region.hi
        self.journal.log(f"obstacle-add {oid} {kind} {priority} {owner} "
                         f"{lo.t} {lo.x} {lo.y} {hi.t} {hi.x} {hi.y}")
        return oid

    def get(self, oid: str) -> Obstacle:
        """The live obstacle ``oid``; another id is ``UnknownEntryError``."""
        return self.index.get(oid)

    def disable(self, oid: str) -> None:
        self._switch(oid, False)

    def enable(self, oid: str) -> None:
        self._switch(oid, True)

    def _switch(self, oid: str, on: bool) -> None:
        obs = self.index.get(oid)
        if obs.enabled != on:
            obs.enabled = on
            self.log_switches((oid,), on)

    def log_switches(self, oids, on: bool) -> None:
        """Write the ``obstacle-on`` or ``obstacle-off`` line of each of
        ``oids``, the line a switch writes; a rail run writes its lines
        here without switching."""
        op = "obstacle-on" if on else "obstacle-off"
        for oid in oids:
            self.journal.log(f"{op} {oid}")

    def remove(self, oid: str) -> None:
        self._switch(oid, False)
        self.index.remove(oid)


class World:
    """Shared picture of the space-time volume: solids plus obstacles, the
    rail runs not yet solid, and the journal that logs every change to
    them.  ``pending[x, y]`` is rail ``(x, y)``'s stretch of consecutive
    runs, which :meth:`flush` turns solid as one box:
    ``[lo.t, hi.t, first run id, journal index of its claim line]``."""

    def __init__(self):
        self.index = BoxIndex()
        self.journal = Journal()
        self.obstacles = ObstacleRegistry(self.index, self.journal)
        self.pending: dict[tuple[int, int], list] = {}
        self._commit_seq = itertools.count()

    def claim(self, eid: str, box: Box3, tag: str) -> None:
        """Commit permanent solid cells (``tag``: circuit, box or connection)
        as one solid index insert, which keeps only their bits, and log its
        journal ``claim`` line.  A claim that shares a cell with an earlier
        solid is a hard fault (:meth:`_overlap`)."""
        try:
            self.index.insert_solid(box)
        except SolidOverlapError:
            raise self._overlap(eid, box) from None
        (lt, lx, ly), (ht, hx, hy) = box
        self.journal.log(f"claim {tag} {eid} {lt} {lx} {ly} {ht} {hx} {hy}")

    def claim_later(self, eid: str, first: int, last: int, x: int, y: int) -> None:
        """Log rail run ``eid``'s ``claim`` line, the cells ``first .. last``
        in t at ``(x, y)``, and add them to that rail's pending stretch,
        with no index insert.  Runs are contiguous: a run that does not
        continue the stretch is a :class:`RouteError`."""
        stretch = self.pending.get((x, y))
        if stretch is not None and stretch[1] != first:
            raise RouteError(f"rail run {eid} from {first} does not continue the stretch "
                             f"at {(x, y)} ending at {stretch[1] - 1}")
        if stretch is None:
            self.pending[x, y] = [first, last + 1, eid, len(self.journal.lines)]
        else:
            stretch[1] = last + 1
        self.journal.log(f"claim connection {eid} {first} {x} {y} {last + 1} {x + 1} {y + 1}")

    def flush(self, x: int, y: int) -> None:
        """Turn rail ``(x, y)``'s pending stretch, if any, solid as one
        insert; a clash is a hard fault named after its first run."""
        stretch = self.pending.get((x, y))
        if stretch is None:
            return
        lo, hi, eid, _ = stretch
        box = Box3(Point3(lo, x, y), Point3(hi, x + 1, y + 1))
        try:
            self.index.insert_solid(box)
        except SolidOverlapError:
            raise self._overlap(eid, box) from None
        del self.pending[x, y]

    def _overlap(self, eid: str, box: Box3) -> RouteError:
        """The fault of claim ``eid``, whose ``box`` meets a solid: it names,
        sorted, the ids of the journal's ``claim`` lines whose boxes meet
        ``box``.  It leaves out the runs still pending, a stretch's runs
        being the rail runs logged on its rail from its first run's line
        on."""
        lines = self.journal.lines
        since = {xy: stretch[3] for xy, stretch in self.pending.items()}
        clash = []
        for i, p in enumerate(map(str.split, lines)):
            if p[1] == "claim":
                lt, lx, ly, ht, hx, hy = map(int, p[4:])
                pending = p[3].startswith(f"{SEG_E}.") and i >= since.get((lx, ly), len(lines))
                if not pending and box.intersects(Box3(Point3(lt, lx, ly), Point3(ht, hx, hy))):
                    clash.append(p[3])
        return RouteError(f"claim {eid} overlaps {sorted(clash)}")

    def is_free(self, box: Box3) -> bool:
        """Whether no solid cell lies in ``box`` (obstacles and pending runs
        do not count): a bit-mask probe of the buckets the box touches."""
        return not self.index.solid_rows(box)


class BlockedView:
    """Blocked-cell predicate for one segment computation: a cell is
    blocked when it lies outside ``bounds``, is solid, or lies inside a
    live obstacle not in ``exempt`` (the spec's own, enabled or not).  A
    query reads the cell's bucket record in the spatial index, its solid
    bit and its plane count, adds the spans of the cell's ``(x, y)``
    column that contain its ``t`` (checked whether or not the bucket has
    a record), and subtracts the exempt obstacles that contain it, whose
    boxes are looked up once here.  A* queries a cell when it pops it."""

    def __init__(self, world: World, bounds: Box3, exempt):
        index = world.index
        self._records = index.records
        self._columns = index.columns
        self._exempt = [lo + hi for lo, hi in (index.get(oid).box for oid in exempt)]
        self._bounds = bounds.lo + bounds.hi  # lo.t, lo.x, lo.y, hi.t, hi.x, hi.y

    def is_blocked(self, cell: tuple[int, int, int]) -> bool:
        t, x, y = cell
        lt, lx, ly, ht, hx, hy = self._bounds
        if not (lt <= t < ht and lx <= x < hx and ly <= y < hy):
            return True
        count = 0
        rec = self._records.get((t >> SHIFT, x >> SHIFT, y >> SHIFT))
        if rec is not None:
            bit = (t & LOW) << T_SHIFT | (x & LOW) << SHIFT | y & LOW
            if rec[0] >> bit & 1:
                return True
            for plane in rec[:0:-1]:  # the planes, top first
                count = count << 1 | plane >> bit & 1
        spans = self._columns.get((x, y))
        if spans:
            for lt, ht in spans:
                if lt <= t < ht:
                    count += 1
        if count:
            for lt, lx, ly, ht, hx, hy in self._exempt:
                if lt <= t < ht and lx <= x < hx and ly <= y < hy:
                    count -= 1
        return count > 0


def default_bounds(spec: SegmentSpec) -> Box3:
    """The box spanning both endpoints, ``SEARCH_MARGIN`` cells wider on
    every side."""
    a, b, m = spec.start, spec.stop, SEARCH_MARGIN
    return Box3(
        Point3(min(a.t, b.t) - m, min(a.x, b.x) - m, min(a.y, b.y) - m),
        Point3(max(a.t, b.t) + m + 1, max(a.x, b.x) + m + 1, max(a.y, b.y) + m + 1),
    )


def plan_segment(spec: SegmentSpec, world: World) -> DefectPolyline:
    """Shortest axis-aligned path from start to stop within
    :func:`default_bounds` under the blocked set, as the primal
    :class:`DefectPolyline` of its turn cells from start to stop, with
    the spec's segment class as its role; its length counts the path's
    cells.

    The heuristic is the exact L1 distance, so the search is admissible
    and the returned path length equals the L1 distance whenever nothing
    obstructs.  Ties break deterministically by axis order (t, x, y) and
    lexicographic cell order; when ``start == stop`` the first pop is
    ``stop`` and the path is that one cell.  A* drains one f level before
    it opens the next, so a queued cell never gets a cheaper path later:
    ``parent`` marks every queued cell and no ``g`` map or set of popped
    cells is kept.  A level is a list sorted by ``(h, cell)`` descending
    and popped from its end: it opens with one sort of its seeds, and
    while it drains only steps towards ``stop`` are queued, each with
    ``h`` one below every queued cell's, pushed in descending cell order
    so the list stays sorted.  The steps away that open level ``f + 2``
    are made from ``expanded``, the level's expanded cells in pop order,
    once the level runs dry.  Parents and pop order
    are those of making them at each pop (the module notes give the
    details).  The spec's own obstacles are exempt, whether or not they
    are switched off.  The polyline is built in one walk from ``stop``
    back through ``parent``, which keeps only the cells where the axis
    changes, so no cell tuple of the path is made.
    """
    bounds = default_bounds(spec)
    start, stop = spec.start, spec.stop
    view = BlockedView(world, bounds, spec.obstacles)
    if view.is_blocked(start):
        raise NoPathError(spec, "start cell blocked")
    if view.is_blocked(stop):
        raise NoPathError(spec, "stop cell blocked")
    st, sx, sy = stop
    parent = {start: None}  # every cell queued at an opened level
    cur = [start]  # the level's queued cells, (h, cell) descending
    settled = 0
    pop, push, is_blocked = cur.pop, cur.append, view.is_blocked
    while cur:  # one pass per f level, lowest first
        expanded = []  # this level's expanded cells, in pop order
        while cur:
            cell = pop()
            if cell == stop:  # walk back to start, keeping the turn cells
                turns, axis, nxt = [stop], None, parent[stop]
                while nxt is not None:
                    step = 0 if nxt[0] != cell[0] else 1 if nxt[1] != cell[1] else 2
                    if step == axis:
                        turns[-1] = nxt
                    else:
                        turns.append(nxt)
                        axis = step
                    cell, nxt = nxt, parent[nxt]
                turns.reverse()
                return DefectPolyline(PRIMAL, spec.segment_class, [Point3(*c) for c in turns])
            if is_blocked(cell):
                continue
            expanded.append(cell)
            # A step towards stop stays at level f, its h one below every
            # queued cell's: pushed in descending cell order, the list stays sorted.
            t, x, y = cell
            if t < st and (nb := (t + 1, x, y)) not in parent:
                parent[nb] = cell
                push(nb)
            if x < sx and (nb := (t, x + 1, y)) not in parent:
                parent[nb] = cell
                push(nb)
            if y != sy and (nb := (t, x, y - 1) if y > sy else (t, x, y + 1)) not in parent:
                parent[nb] = cell
                push(nb)
            if x > sx and (nb := (t, x - 1, y)) not in parent:
                parent[nb] = cell
                push(nb)
            if t > st and (nb := (t - 1, x, y)) not in parent:
                parent[nb] = cell
                push(nb)
        # Open level f + 2: the steps away from stop of the expanded cells,
        # in pop order, each in the fixed order t, x, y, negative first.
        settled += len(expanded)
        for cell in expanded:
            t, x, y = cell
            for nb, away in (
                ((t - 1, x, y), t <= st),
                ((t + 1, x, y), t >= st),
                ((t, x - 1, y), x <= sx),
                ((t, x + 1, y), x >= sx),
                ((t, x, y - 1), y <= sy),
                ((t, x, y + 1), y >= sy),
            ):
                if away and nb not in parent:
                    parent[nb] = cell
                    push(nb)
        cur.sort(key=lambda c: (abs(c[0] - st) + abs(c[1] - sx) + abs(c[2] - sy), c), reverse=True)
    raise NoPathError(spec, f"searched {settled} cells in {bounds.lo.as_tuple()}..{bounds.hi.as_tuple()}")


def compute_taskset(specs: list[SegmentSpec], world: World) -> list[DefectPolyline]:
    """Compute the searched segments of one event-handling pass under the
    obstacle protocol and return, in the order computed, the polyline
    each claimed.

    Specs are processed in strictly descending priority.  For each spec:
    its own guide and occupy obstacles are disabled (the switch lines
    the journal records; the search exempts them by its spec), the
    segment is planned, the polyline the search returns is committed
    to the world, the guide obstacles are re-enabled and the occupy
    obstacles are removed.  Rail runs are no specs; :func:`claim_run` claims them.
    Committed segments are mutually disjoint and disjoint from all prior
    geometry: a claim that overlaps a solid raises :class:`RouteError`.
    """
    prios = [s.priority for s in specs]
    if len(set(prios)) != len(prios):
        raise RouteError(f"task set priorities must be distinct, got {sorted(prios)}")
    registry = world.obstacles
    polys = []
    for spec in sorted(specs, key=lambda s: -s.priority):
        for oid in spec.obstacles:
            registry.disable(oid)
        poly = plan_segment(spec, world)
        _commit_path(spec, poly, world)
        for oid in spec.obstacles:
            if registry.get(oid).kind == GUIDE:
                registry.enable(oid)
            else:
                registry.remove(oid)
        polys.append(poly)
    return polys


def _commit_path(spec: SegmentSpec, poly: DefectPolyline, world: World) -> None:
    """Claim the cells ``poly`` covers, one solid box per segment."""
    seq = next(world._commit_seq)
    for i, box in enumerate(poly.claim_boxes()):
        world.claim(f"{spec.segment_class}.{spec.owner}.c{seq}.{i}", box, "connection")


def claim_run(world: World, owner: str, first: int, last: int, x: int, y: int,
              obstacles: tuple) -> None:
    """Claim connection ``owner``'s rail run, the cells ``first .. last`` in
    t at ``(x, y)``, into the rail's pending stretch (:meth:`World.claim_later`),
    with the ``obstacle-off`` and ``obstacle-on`` lines of its own
    ``obstacles`` logged around its ``claim`` line and none switched (the
    module notes say why this is exact)."""
    registry = world.obstacles
    registry.log_switches(obstacles, False)
    world.claim_later(f"{SEG_E}.{owner}.c{next(world._commit_seq)}.0", first, last, x, y)
    registry.log_switches(obstacles, True)
