import itertools
import random
from pathlib import Path

import pytest

from topoasm import fixtures, spatial
from topoasm.engine import SynthesisConfig, synthesize
from topoasm.geom import Box3, Point3, box_from_extents, cell_box
from topoasm.icm import parse_icm
from topoasm.sched import SchedulerPolicy
from topoasm.route import GUIDE, BlockedView, Obstacle, RouteError, World
from topoasm.spatial import (
    BUCKET, COLUMN_T, LOW, SHIFT, T_SHIFT, BoxIndex, DuplicateEntryError, SolidOverlapError,
    UnknownEntryError,
)

from conftest import EVERYWHERE, contains_cell


def rand_box(rng, span=60, max_ext=8):
    lo = Point3(rng.randint(-span, span), rng.randint(-span, span), rng.randint(-span, span))
    return box_from_extents(
        lo, (rng.randint(1, max_ext), rng.randint(1, max_ext), rng.randint(1, max_ext))
    )


def entry(eid, box):
    """An index entry: a guide obstacle's record."""
    return Obstacle(eid, GUIDE, box)


def brute_hits(entries, probe):
    return {e.id for e in entries if e.box.intersects(probe)}


def view_of(world, exempt=()):
    """The blocked-cell view of ``world`` for a search that exempts the
    obstacles in ``exempt``, unbounded in practice."""
    return BlockedView(world, EVERYWHERE, exempt)


def test_insert_and_point_query():
    w = World()
    idx = w.index
    box = box_from_extents(Point3(0, 0, 0), (1, 1, 1))
    idx.insert(entry("a", box))
    assert len(idx) == 1
    assert idx.hits(box) == {"a"}
    assert view_of(w).is_blocked(box.lo) and not view_of(w, {"a"}).is_blocked(box.lo)
    assert not view_of(w).is_blocked((1, 0, 0))


def test_duplicate_id_rejected():
    idx = BoxIndex()
    box = box_from_extents(Point3(0, 0, 0), (1, 1, 1))
    idx.insert(entry("a", box))
    with pytest.raises(DuplicateEntryError):
        idx.insert(entry("a", box_from_extents(Point3(5, 0, 0), (1, 1, 1))))


def test_remove_then_empty():
    idx = BoxIndex()
    box = box_from_extents(Point3(3, 3, 3), (2, 2, 2))
    idx.insert(entry("a", box))
    idx.remove("a")
    assert len(idx) == 0
    assert idx.hits(box) == set()
    with pytest.raises(UnknownEntryError):
        idx.remove("a")


def test_face_touching_is_not_a_hit():
    idx = BoxIndex()
    idx.insert(entry("a", box_from_extents(Point3(0, 0, 0), (2, 2, 2))))
    assert idx.hits(box_from_extents(Point3(2, 0, 0), (2, 2, 2))) == set()


def test_thousand_boxes_all_retrievable_by_point_probe():
    rng = random.Random(11)
    idx = BoxIndex()
    entries = []
    for i in range(1000):
        e = entry(f"e{i}", rand_box(rng))
        idx.insert(e)
        entries.append(e)
    for e in entries:
        probe = box_from_extents(e.box.lo, (1, 1, 1))
        got = idx.hits(probe)
        assert e.id in got
        assert got == brute_hits(entries, probe)


def test_random_probes_match_brute_force():
    rng = random.Random(23)
    idx = BoxIndex()
    entries = []
    for i in range(1000):
        e = entry(f"e{i}", rand_box(rng))
        idx.insert(e)
        entries.append(e)
    for _ in range(100):
        probe = rand_box(rng, span=70, max_ext=20)
        assert idx.hits(probe) == brute_hits(entries, probe)


def test_interleaved_script_replays_to_same_hit_set():
    rng = random.Random(5)
    idx = BoxIndex()
    live = {}
    counter = 0
    for _ in range(500):
        op = rng.random()
        if op < 0.6 or not live:
            e = entry(f"s{counter}", rand_box(rng))
            counter += 1
            idx.insert(e)
            live[e.id] = e
        else:
            victim = rng.choice(sorted(live))
            idx.remove(victim)
            del live[victim]
    for _ in range(50):
        probe = rand_box(rng, span=70, max_ext=16)
        assert idx.hits(probe) == brute_hits(live.values(), probe)


def test_query_independent_of_insertion_order():
    rng = random.Random(9)
    boxes = [rand_box(rng) for _ in range(200)]
    probes = [rand_box(rng, max_ext=12) for _ in range(30)]

    def build(order):
        idx = BoxIndex()
        for i in order:
            idx.insert(entry(f"e{i}", boxes[i]))
        return [frozenset(idx.hits(p)) for p in probes]

    forward = build(range(200))
    shuffled = list(range(200))
    rng.shuffle(shuffled)
    assert build(shuffled) == forward


def test_hits_names_obstacles_only():
    """A solid keeps no entry: ``hits`` and ``len`` count only the
    obstacles, and the solid's cells stay blocked with them exempt."""
    w = World()
    idx = w.index
    b = box_from_extents(Point3(0, 0, 0), (4, 4, 4))
    idx.insert_solid(b)
    idx.insert(entry("obs", box_from_extents(Point3(1, 1, 1), (4, 4, 4))))
    probe = box_from_extents(Point3(0, 0, 0), (8, 8, 8))
    assert idx.hits(probe) == {"obs"} and len(idx) == 1
    assert idx.solid_rows(probe) == 0b1111 and view_of(w, {"obs"}).is_blocked(b.lo)


def rand_rod(rng, span=40):
    """A box longer than 64 in t and 1-2 cells wide in x and y, the shape
    of the rail and lifetime guides."""
    lo = Point3(rng.randint(-span, span), rng.randint(-span, span), rng.randint(-span, span))
    return box_from_extents(lo, (rng.randint(65, 140), rng.randint(1, 2), rng.randint(1, 2)))


def test_covering_matches_brute_force_under_random_scripts():
    """``BlockedView.is_blocked(cell)``, with the ``exempt`` obstacles
    exempt, is True exactly when a live box that is not exempt
    contains the cell, under seeded insert/remove scripts whose
    boxes often span many buckets or are long thin rods.  Probe cells
    include every live box's low corner, its last cell and the first
    cells past its high faces; exempt sets include the empty set, every
    live id and random subsets of the live ids."""
    for seed in range(8):
        rng = random.Random(seed)
        w = World()
        idx = w.index
        live = {}
        for step in range(300):
            if rng.random() < 0.65 or not live:
                roll = rng.random()
                box = (rand_rod(rng) if roll < 0.2
                       else rand_box(rng, span=40, max_ext=30 if roll < 0.45 else 4))
                e = entry(f"s{step}", box)
                idx.insert(e)
                live[e.id] = e
            else:
                victim = rng.choice(sorted(live))
                idx.remove(victim)
                del live[victim]
            if step % 25:
                continue
            ids = sorted(live)
            exempts = [set(), set(ids)] + [set(rng.sample(ids, rng.randint(1, len(ids))))
                                           for _ in range(3 if ids else 0)]
            probes = [tuple(rng.randint(-45, 185) if i == 0 else rng.randint(-45, 75)
                            for i in range(3)) for _ in range(60)]
            for e in live.values():
                lo, hi = e.box.lo, e.box.hi
                probes += [lo.as_tuple(), (hi.t - 1, hi.x - 1, hi.y - 1),
                           (hi.t, lo.x, lo.y), (lo.t, hi.x, lo.y), (lo.t, lo.x, hi.y)]
            covering = [(cell, {e.id for e in live.values() if contains_cell(e.box, cell)})
                        for cell in probes]
            for exempt in exempts:
                view = view_of(w, exempt)
                for cell, covers in covering:
                    want = bool(covers - exempt)
                    assert view.is_blocked(cell) is want, (seed, step, cell, sorted(exempt))


def plane_count(idx, cell):
    """The obstacle count of ``cell`` as read from its bucket's bit planes."""
    t, x, y = cell
    rec = idx.records.get((t >> SHIFT, x >> SHIFT, y >> SHIFT), [0])
    bit = (t & LOW) << T_SHIFT | (x & LOW) << SHIFT | y & LOW
    return sum((plane >> bit & 1) << i for i, plane in enumerate(rec[1:]))


def index_count(idx, cell):
    """The obstacle count of ``cell`` as the index holds it: its bucket's
    bit planes plus the spans of its ``(x, y)`` column that contain ``t``."""
    t, x, y = cell
    return plane_count(idx, cell) + sum(lt <= t < ht for lt, ht in idx.columns.get((x, y), ()))


@pytest.mark.parametrize("seed", range(6))
def test_obstacle_counts_match_brute_force_under_random_scripts(seed):
    """Under seeded add/remove scripts of registry obstacles (negative
    corners, long rods, and up to 5 obstacles stacked on one cell, so a
    carry reaches a third plane) among a few solids, every probed cell's
    count read from the index (planes plus column spans) equals the
    number of live obstacles that contain it, and ``is_blocked`` agrees
    with brute force with none and with a random subset of them
    exempt.  Once all are removed, every bucket's record is just its
    solid bits, or gone, and no column is left."""
    rng = random.Random(3000 + seed)
    w = World()
    idx, reg = w.index, w.obstacles
    solids = []
    for n in range(6):
        box = solid_box(rng)
        if not idx.solid_rows(box):
            w.claim(f"s{n}", box, "box")
            solids.append(box)
    stack = Point3(rng.randint(-20, -1), rng.randint(-20, -1), rng.randint(-20, -1))
    live = {}  # oid -> box
    tallest = 0
    for step in range(150):
        roll = rng.random()
        if roll < 0.6 or not live:
            if roll < 0.25 and sum(contains_cell(b, stack) for b in live.values()) < 5:
                box = box_from_extents(stack.shifted(*(-rng.randint(0, 9) for _ in range(3))),
                                       tuple(rng.randint(10, 19) for _ in range(3)))
            elif roll < 0.35:
                box = rand_rod(rng)
            else:
                box = rand_box(rng, span=30, max_ext=12)
            live[reg.add(box, "guide", step, "x")] = box
        else:
            oid = rng.choice(sorted(live))
            reg.remove(oid)
            del live[oid]
        tallest = max(tallest, max(len(rec) - 1 for rec in idx.records.values()))
        cells = [stack] + [tuple(rng.randint(-45, 45) for _ in range(3)) for _ in range(20)]
        for (lt, lx, ly), (ht, hx, hy) in live.values():
            cells += [(lt, lx, ly), (ht - 1, hx - 1, hy - 1), (ht, lx, ly), (lt, hx, ly),
                      (lt, lx, hy)]
        covering = []
        for cell in cells:
            covers = {oid for oid, box in live.items() if contains_cell(box, cell)}
            assert index_count(idx, cell) == len(covers), (seed, step, cell)
            covering.append((cell, covers, any(contains_cell(b, cell) for b in solids)))
        for exempt in (set(), set(rng.sample(sorted(live), len(live) // 2))):
            view = view_of(w, exempt)
            for cell, covers, solid in covering:
                want = solid or bool(covers - exempt)
                assert view.is_blocked(cell) is want, (seed, step, cell, sorted(exempt))
    assert tallest >= 3
    for oid in sorted(live):
        reg.remove(oid)
    assert len(idx) == 0
    assert all(len(rec) == 1 and rec[0] for rec in idx.records.values())
    assert not idx.columns


# x-y cross-section of a thin obstacle -> whether it is kept as column
# spans once it is longer than COLUMN_T in t
THIN_SHAPES = {(1, 1): True, (1, 2): True, (2, 1): True, (1, 3): False, (2, 2): False}


@pytest.mark.parametrize("seed", range(4))
def test_thin_obstacles_at_the_column_threshold_match_brute_force(seed):
    """Add/remove scripts of thin registry obstacles, ``COLUMN_T`` and
    ``COLUMN_T + 1`` long in t, of every cross-section in
    ``THIN_SHAPES``, with negative corners, removed in random order, and
    with many stacked, overlapping or equal spans on one shared column.
    After every op each obstacle sits in the store its shape names: the
    column spans are exactly those of the live column obstacles, and the
    planes count exactly the others.  ``is_blocked`` agrees with brute
    force with no obstacle and with a random subset exempt."""
    rng = random.Random(4000 + seed)
    w = World()
    idx, reg = w.index, w.obstacles
    home = (rng.randint(-12, -1), rng.randint(-12, -1))  # the shared column
    live = {}  # oid -> (box, in a column)
    deepest = 0
    for step in range(100):
        if rng.random() < 0.7 or not live:
            shape = rng.choice(sorted(THIN_SHAPES))
            length = COLUMN_T + rng.randint(0, 1)
            if rng.random() < 0.5:
                lo = Point3(rng.randint(-40, -36), *home)
            else:
                lo = Point3(rng.randint(-50, 30), rng.randint(-12, 12), rng.randint(-12, 12))
            box = box_from_extents(lo, (length, *shape))
            live[reg.add(box, "guide", step, "x")] = (box, THIN_SHAPES[shape]
                                                           and length > COLUMN_T)
        else:
            oid = rng.choice(sorted(live))
            reg.remove(oid)
            del live[oid]
        want = {}
        for box, column in live.values():
            if column:
                for xy in itertools.product(range(box.lo.x, box.hi.x), range(box.lo.y, box.hi.y)):
                    want.setdefault(xy, []).append((box.lo.t, box.hi.t))
        assert {xy: sorted(spans) for xy, spans in idx.columns.items()} == {
            xy: sorted(spans) for xy, spans in want.items()}, (seed, step)
        deepest = max(deepest, len(idx.columns.get(home, ())))
        cells = [(rng.randint(-52, 66), *home) for _ in range(10)]
        for (lt, lx, ly), (ht, hx, hy) in (box for box, _ in live.values()):
            cells += [(lt, lx, ly), (ht - 1, hx - 1, hy - 1), (lt - 1, lx, ly), (ht, lx, ly),
                      (rng.randrange(lt, ht), hx, ly), (rng.randrange(lt, ht), lx, hy)]
        covering = []
        for cell in cells:
            covers = {oid for oid, (box, _) in live.items() if contains_cell(box, cell)}
            in_planes = sum(not column for oid, (_, column) in live.items() if oid in covers)
            assert plane_count(idx, cell) == in_planes, (seed, step, cell)
            covering.append((cell, covers))
        for exempt in (set(), set(rng.sample(sorted(live), rng.randint(0, len(live))))):
            view = view_of(w, exempt)
            for cell, covers in covering:
                assert view.is_blocked(cell) is bool(covers - exempt), (seed, step, cell)
    assert deepest >= 3
    for oid in rng.sample(sorted(live), len(live)):
        reg.remove(oid)
    assert not idx.columns and not idx.records and len(idx) == 0


# -- solids: permanent bit-mask cells --------------------------------------


def cells_of(box):
    (lt, lx, ly), (ht, hx, hy) = box
    return itertools.product(range(lt, ht), range(lx, hx), range(ly, hy))


def solid_box(rng):
    """A box with negative and positive corners that often crosses bucket
    faces and is now and then longer than a bucket on each axis."""
    lo = Point3(rng.randint(-20, 12), rng.randint(-20, 12), rng.randint(-20, 12))
    return box_from_extents(lo, tuple(rng.choice((1, 1, 2, 3, 5, 9, 13, 19)) for _ in range(3)))


# the tags World.claim logs on a solid's journal line
CLAIM_TAGS = ("circuit", "box", "connection")


def brute_rows(boxes, probe):
    """The ``solid_rows`` mask of ``probe`` over the solid ``boxes``: each
    box that meets the probe sets the rows of their common part."""
    rows = 0
    for (_, _, ly), (_, _, hy) in (b for b in boxes if b.intersects(probe)):
        for y in range(max(ly, probe.lo.y), min(hy, probe.hi.y)):
            rows |= 1 << (y - probe.lo.y)
    return rows


class SolidOracle:
    """Brute force over the live boxes, replayed next to a world whose
    solids are claimed through ``World.claim``."""

    def __init__(self):
        self.world = World()
        self.idx = self.world.index
        self.live = {}  # obstacle id -> Obstacle
        self.solid = {}  # solid id -> box

    def insert_solid(self, eid, box, tag):
        clash = sorted(s for s, b in self.solid.items() if b.intersects(box))
        try:
            self.world.claim(eid, box, tag)
        except RouteError as err:
            assert clash and str(err) == f"claim {eid} overlaps {clash}", eid
        else:
            assert not clash, eid
            self.solid[eid] = box

    def insert_obstacle(self, e):
        self.idx.insert(e)
        self.live[e.id] = e

    def remove(self, eid):
        if eid in self.solid:
            with pytest.raises(UnknownEntryError):
                self.idx.remove(eid)
        else:
            self.idx.remove(eid)
            del self.live[eid]

    def check(self, probes, cells, exempts):
        """Compare ``solid_rows`` and ``hits`` over each probe, and
        ``BlockedView.is_blocked`` (with each exempt set of obstacles)
        over each cell, against brute force."""
        assert len(self.idx) == len(self.live)
        live, solids = self.live.values(), self.solid.values()
        for probe in probes:
            assert self.idx.solid_rows(probe) == brute_rows(solids, probe), probe
            assert self.idx.hits(probe) == {e.id for e in live if e.box.intersects(probe)}, probe
        covering = [(cell, any(contains_cell(b, cell) for b in solids),
                     {e.id for e in live if contains_cell(e.box, cell)}) for cell in cells]
        for exempt in exempts:
            view = view_of(self.world, exempt)
            for cell, solid, covers in covering:
                want = solid or bool(covers - exempt)
                assert view.is_blocked(cell) is want, (cell, sorted(exempt))


def run_solid_script(ops, rng):
    """Replay ``ops`` (``("solid" | "obstacle", box, tag)`` or
    ``("remove", k)``, removing the k-th live id mod their number) and
    check every query after each op."""
    oracle = SolidOracle()
    for n, op in enumerate(ops):
        if op[0] == "remove":
            ids = sorted(oracle.live.keys() | oracle.solid.keys())
            if ids:
                oracle.remove(ids[op[1] % len(ids)])
        elif op[0] == "solid":
            oracle.insert_solid(f"s{n}", op[1], op[2])
        else:
            oracle.insert_obstacle(entry(f"o{n}", op[1]))
        ids = sorted(oracle.live.keys() | oracle.solid.keys())
        # a solid is never a registry obstacle, so it is never exempt
        exempts = [ex - oracle.solid.keys()
                   for ex in (set(), set(ids), set(rng.sample(ids, len(ids) // 2)))]
        cells = [tuple(rng.randint(-24, 36) for _ in range(3)) for _ in range(20)]
        for box in [e.box for e in oracle.live.values()] + list(oracle.solid.values()):
            (lt, lx, ly), (ht, hx, hy) = box
            cells += [(lt, lx, ly), (ht - 1, hx - 1, hy - 1), (ht, lx, ly), (lt, hx, ly),
                      (lt, lx, hy), (lt - 1, lx, ly), (lt, lx - 1, ly), (lt, lx, ly - 1)]
        probes = ([solid_box(rng) for _ in range(4)] + [e.box for e in oracle.live.values()]
                  + list(oracle.solid.values()))
        oracle.check(probes, cells, exempts)
    return oracle


def random_solid_ops(rng, n, solid_share=0.55, obstacle_share=0.3):
    """``n`` ops: solids, obstacles, and removals with what share is left."""
    ops = []
    for _ in range(n):
        roll = rng.random()
        if roll < solid_share:
            ops.append(("solid", solid_box(rng), rng.choice(CLAIM_TAGS)))
        elif roll < solid_share + obstacle_share:
            ops.append(("obstacle", solid_box(rng), "obstacle"))
        else:
            ops.append(("remove", rng.randrange(1 << 16)))
    return ops


@pytest.mark.parametrize("seed", range(6))
def test_solid_index_matches_brute_force_under_random_scripts(seed):
    """Solid claims are accepted exactly when they share no cell with a
    live solid, and a refused one names every solid it meets; solids
    cannot be removed; and ``solid_rows``, ``BlockedView.is_blocked``
    and ``hits`` agree with brute force after every op."""
    rng = random.Random(1000 + seed)
    oracle = run_solid_script(random_solid_ops(rng, 60), rng)
    assert oracle.solid and oracle.live


@pytest.mark.parametrize("solid_share, obstacle_share", [(0.9, 0.05), (0.2, 0.4)],
                         ids=["solid-heavy", "remove-heavy"])
@pytest.mark.parametrize("seed", range(4))
def test_solid_index_matches_brute_force_under_other_op_mixes(seed, solid_share, obstacle_share):
    """The same oracle on short scripts that nearly only add solids (so
    the masks fill up and some inserts are refused) and on scripts that
    mostly remove (so obstacles come and go under permanent solids)."""
    rng = random.Random(2000 + seed)
    run_solid_script(random_solid_ops(rng, 25, solid_share, obstacle_share), rng)


def test_every_cell_of_a_solid_box_is_covered_and_no_other():
    """Each cell of a solid crossing buckets on every axis, with negative
    corners, is blocked; the cells one step outside each face are not."""
    w = World()
    box = box_from_extents(Point3(-11, -3, 5), (19, 10, 12))
    w.index.insert_solid(box)
    inside = set(cells_of(box))
    (lt, lx, ly), (ht, hx, hy) = box
    around = itertools.product(range(lt - 1, ht + 1), range(lx - 1, hx + 1), range(ly - 1, hy + 1))
    view = view_of(w)
    for cell in around:
        assert view.is_blocked(cell) is (cell in inside), cell


def test_rejected_solid_insert_leaves_the_index_unchanged():
    """A solid that overlaps another in one bucket and reaches into
    buckets of its own is refused without marking any of its cells."""
    w = World()
    idx = w.index
    first = box_from_extents(Point3(0, 0, 0), (2, 2, 2))
    idx.insert_solid(first)
    idx.insert(entry("o", box_from_extents(Point3(-4, 0, 0), (3, 3, 3))))
    late = box_from_extents(Point3(-9, -9, -9), (11, 11, 11))

    def state():
        view = view_of(w)
        return (len(idx), idx.hits(late), idx.solid_rows(late),
                [view.is_blocked(c) for c in cells_of(late)])

    before = state()
    with pytest.raises(SolidOverlapError):
        idx.insert_solid(late)
    assert state() == before
    assert idx.solid_rows(late) == 0b11 << 9  # only a's rows, y = 0 and 1
    assert not idx.solid_rows(box_from_extents(Point3(-9, -9, -9), (9, 9, 9)))


def test_a_refused_solid_clears_the_bits_it_set():
    """``insert_solid`` sets bits bucket by bucket in one pass and, on a
    clash, clears what it set: random boxes of up to 3 buckets per axis,
    whose one clashing cell lies in the last bucket the pass visits (the
    highest in t, then x, then y), over buckets that already hold other
    solids and obstacle planes, leave every record as it was."""
    rng = random.Random(28)
    undone = 0
    for trial in range(300):
        idx = BoxIndex()
        lo, hi = [], []
        for _ in range(3):
            a = rng.randint(-20, 20)
            lo.append(a)
            hi.append(a + rng.randint(1, 3 * BUCKET - (a & LOW)))  # up to 3 buckets
        box = Box3(Point3(*lo), Point3(*hi))
        last = [rng.randint(max(l, (h - 1) & ~LOW), h - 1) for l, h in zip(lo, hi)]
        idx.insert_solid(cell_box(Point3(*last)))
        # other solids beside the box in its buckets, obstacles across it
        hull = [range(l & ~LOW, ((h - 1) | LOW) + 1) for l, h in zip(lo, hi)]
        for cell in {Point3(*(rng.choice(r) for r in hull)) for _ in range(6)}:
            if not contains_cell(box, cell):
                idx.insert_solid(cell_box(cell))
        for i in range(rng.randint(0, 3)):
            corner = Point3(*(rng.choice(r) for r in hull))
            idx.insert(entry(f"o{i}", box_from_extents(corner, (rng.randint(1, 12),) * 3)))
        before = {key: list(rec) for key, rec in idx.records.items()}
        with pytest.raises(SolidOverlapError):
            idx.insert_solid(box)
        assert idx.records == before, (trial, box, last)
        undone += len(spatial._box_masks(box)) > 1
    assert undone > 250


def test_long_t_spans_are_built_at_each_use_and_not_kept():
    """A merged rail stretch can be far longer in t than anything in the
    planes: its t spans are built afresh, so the process-wide t memo keeps
    no key longer than ``COLUMN_T``, and the stretch's cells, and no
    others, turn solid."""
    w = World()
    box = box_from_extents(Point3(-37, 3, 4), (500, 1, 1))
    w.index.insert_solid(box)
    assert all(length <= COLUMN_T for _, length in spatial._T_SPANS)
    view = view_of(w)
    assert all(view.is_blocked(c) for c in cells_of(box))
    assert not view.is_blocked((-38, 3, 4)) and not view.is_blocked((463, 3, 4))
    assert w.index.solid_rows(box.inflated(2, 2, 2)) == 0b00100


def test_removing_a_solid_raises_and_keeps_it():
    """A solid keeps no entry, so removing it is an unknown id, and every
    one of its cells stays blocked."""
    w = World()
    idx = w.index
    box = box_from_extents(Point3(3, -5, 7), (4, 9, 2))
    idx.insert_solid(box)
    with pytest.raises(UnknownEntryError):
        idx.remove("s")
    assert len(idx) == 0 and idx.solid_rows(box) == 0b11
    view = view_of(w)
    assert all(view.is_blocked(c) for c in cells_of(box))


def test_world_claim_clash_names_every_solid_it_overlaps():
    """The clash text lists, in sorted order, the journal's claims that
    the new box overlaps and leaves out obstacles under the same cells."""
    w = World()
    w.claim("pin.b", box_from_extents(Point3(0, 0, 0), (2, 2, 2)), "circuit")
    w.claim("box.a", box_from_extents(Point3(0, 6, 0), (2, 4, 2)), "box")
    w.obstacles.add(box_from_extents(Point3(0, 0, 0), (2, 12, 2)), "guide", 1, "x")
    late = box_from_extents(Point3(1, 1, 1), (1, 8, 1))
    assert not w.is_free(late)
    with pytest.raises(RouteError) as err:
        w.claim("link", late, "connection")
    assert str(err.value) == "claim link overlaps ['box.a', 'pin.b']"
    assert len(w.index) == 1


def test_solid_rows_folds_the_slab_onto_its_rows():
    """Bit ``y - slab.lo.y`` of ``solid_rows`` is set exactly when a solid
    cell of the slab has that ``y``: brute force over the cells of random
    solids, for slabs with negative corners that span several buckets on
    every axis, beside obstacles that must not count."""
    rng = random.Random(25)
    set_bits = 0
    for trial in range(40):
        w = World()
        cells = set()
        for i in range(rng.randint(0, 30)):
            box = solid_box(rng)
            if w.is_free(box):
                w.claim(f"s{i}", box, "connection")
                cells.update(cells_of(box))
            else:
                w.obstacles.add(box, "guide", 0, "x")
        for _ in range(25):
            lo = Point3(rng.randint(-24, 12), rng.randint(-24, 12), rng.randint(-24, 12))
            slab = box_from_extents(lo, (rng.randint(1, 26), rng.randint(1, 26), rng.randint(1, 34)))
            want = 0
            for t, x, y in cells:
                if contains_cell(slab, (t, x, y)):
                    want |= 1 << (y - lo.y)
            assert w.index.solid_rows(slab) == want, (trial, slab)
            set_bits += bin(want).count("1")
    assert set_bits > 3000


def reference_box_masks(box):
    """The per-bucket masks of ``box`` built afresh on each call, the
    direct product of the three axes' spans, kept as the reference for
    the memoized spans."""
    def table(stride):
        return [[sum(1 << (stride * c) for c in range(lo, hi)) for hi in range(spatial.BUCKET + 1)]
                for lo in range(spatial.BUCKET + 1)]

    def axis_spans(lo, hi, table):
        first, last = lo >> SHIFT, (hi - 1) >> SHIFT
        if first == last:
            return [(first, table[lo & LOW][hi - (first << SHIFT)])]
        full = table[0][spatial.BUCKET]
        return ([(first, table[lo & LOW][spatial.BUCKET])]
                + [(b, full) for b in range(first + 1, last)]
                + [(last, table[0][hi - (last << SHIFT)])])

    (lt, lx, ly), (ht, hx, hy) = box
    size = spatial.BUCKET
    ts = axis_spans(lt, ht, table(size * size))
    xys = [(bx, by, xm * ym) for bx, xm in axis_spans(lx, hx, table(size))
           for by, ym in axis_spans(ly, hy, table(1))]
    return [((bt, bx, by), xy * tm) for bt, tm in ts for bx, by, xy in xys]


def test_box_masks_equal_the_direct_product():
    """``_box_masks`` with memoized axis spans equals the direct product on
    random boxes with negative corners, many of them straddling buckets."""
    rng = random.Random(2025)
    straddling = 0
    for trial in range(2000):
        lo = Point3(rng.randint(-40, 40), rng.randint(-40, 40), rng.randint(-40, 40))
        box = box_from_extents(lo, tuple(rng.choice((1, 2, 3, 7, 8, 9, 17, 30)) for _ in range(3)))
        got = spatial._box_masks(box)
        assert got == reference_box_masks(box), box
        straddling += len(got) > 1
    assert straddling > 1500


def test_span_memos_stay_small_on_the_chain(monkeypatch):
    """The axis span memos, each keyed by a span's offset in its first
    bucket and its length, stay small after the benchmark's 14-Toffoli
    chain under spiral and alap."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "topobench"))
    import compose

    memos = [spatial._AxisSpans(spatial.BUCKET ** 2, spatial._T_SPANS.longest),
             spatial._AxisSpans(spatial.BUCKET), spatial._AxisSpans(1)]
    for name, memo in zip(("_T_SPANS", "_X_SPANS", "_Y_SPANS"), memos):
        monkeypatch.setattr(spatial, name, memo)
    circuit = parse_icm(compose.compose(fixtures.toffoli_text(), 14, sequential=True))
    for kind in ("spiral", "alap"):
        synthesize(circuit, SynthesisConfig(policy=SchedulerPolicy(kind=kind)))
    assert all(0 < len(memo) < 1000 for memo in memos), [len(memo) for memo in memos]
