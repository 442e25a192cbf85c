"""Spatial index over axis-aligned boxes in the space-time volume.

The index answers whether a box holds a solid cell, how many obstacles
cover a cell, and which obstacles intersect a probe box.  Intersection
follows the inclusive-exclusive convention of
:class:`topoasm.geom.Box3`, so boxes that merely share a face do not
collide.  Cells are hashed into lattice buckets of ``BUCKET`` cells per
edge, keyed ``(t >> SHIFT, x >> SHIFT, y >> SHIFT)`` (floor division,
negative coordinates included); a cell's bit in its bucket is
``(t & LOW) << T_SHIFT | (x & LOW) << SHIFT | y & LOW``.

Boxes live in one of two stores.  Each bucket keeps one record, a
``list[int]`` of bit masks over its cells:

* Entry 0 holds the **solid** cells (circuit, box and connection
  claims).  Solids are bits only, with no entry:
  :meth:`BoxIndex.insert_solid` takes the bare box and sets its bits in
  one pass over its buckets, undoing them on a clash.  They are never
  removed and never exempt from a blocked-cell query, no two of them
  share a cell, and the claim journal, not the index, names who claimed
  one.
* The entries after it are the bit planes, low bit first, of a per-cell
  count of the removable **obstacles** that cover the cell (bit-sliced
  counters, Knuth, *TAOCP* 4A, 7.1.3).  An obstacle insert ripples a
  carry of its per-bucket mask through the planes, a remove ripples a
  borrow; a zero top plane is popped, and a record with no bits left is
  dropped.

The other store, :attr:`BoxIndex.columns`, holds the **long thin
obstacles**: an obstacle whose x-y cross-section is at most 2 cells and
whose t length exceeds ``COLUMN_T`` (4 buckets) is kept as one t span
``(lo.t, hi.t)`` in the list of each ``(x, y)`` column it covers, and
touches no bucket.  These are the pool rails' guides and the forward
guards that run from a connection's anchor to the end of time; in the
planes each would ripple through every bucket it spans, so their cost
would grow with the circuit's length.  A cell's obstacle count is its
plane count plus the spans of its column that contain its ``t``
(interval stabbing, de Berg et al., *Computational Geometry*, ch. 10).
The length threshold keeps the many short pin guards out of the
columns, so a column holds only long spans and a linear scan reads it.  An emptied column is
deleted, as an empty bucket record is.

A box's mask in a bucket is the product of its axes' masks there.  An
axis's ``(bucket offset, mask)`` spans depend only on the box's offset
in its first bucket and its length, ``(lo & LOW, hi - lo)``, so one memo
per axis, shared by every index since a key's spans never change, builds
them once per key; long thin obstacles stay out of the planes, so t
lengths stay short and the memos small (a few hundred keys on a
14-Toffoli chain).  A t length above ``COLUMN_T``, such as a merged
rail stretch's, is built afresh at each use and not kept: such lengths
take about as many values as a circuit has timesteps, and each span
tuple grows with its length.  :meth:`BoxIndex.solid_rows` folds a slab's
solid cells over t and x onto its rows, for the alap wall.

Inserts, overlap probes and cell tests are therefore bit operations or
short scans.  Only obstacles, which :meth:`BoxIndex.insert` takes, keep
an entry, their :class:`~topoasm.route.Obstacle` record, whichever store
holds them, so ``remove`` finds their cells and a blocked-cell query can
subtract the obstacles it exempts.  ``hits`` scans those entries; only
tests and the tracer need it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .geom import Box3

if TYPE_CHECKING:
    from .route import Obstacle

BUCKET = 8  # lattice units per bucket edge; a power of two
SHIFT = BUCKET.bit_length() - 1  # bucket key of a coordinate: c >> SHIFT
LOW = BUCKET - 1  # a coordinate's offset in its bucket: c & LOW
T_SHIFT = 2 * SHIFT  # a cell's bit: (t & LOW) << T_SHIFT | (x & LOW) << SHIFT | y & LOW
COLUMN_T = 4 * BUCKET  # an obstacle of at most 2 x-y cells longer than this in t is column spans


class _AxisSpans(dict):
    """One axis's spans, memoized up to length ``longest``:
    ``spans[lo & LOW, hi - lo]`` holds ``(bucket offset, mask)`` for every
    bucket that ``[lo, hi)`` touches, the offset counted from
    ``lo >> SHIFT``; a mask has the bits ``stride * c`` of the cells ``c``
    it covers in its bucket, ``cells[a][b]`` for the cells ``a .. b - 1``."""

    def __init__(self, stride: int, longest: float = float("inf")):
        super().__init__()
        self.longest = longest
        self.cells = [[sum(1 << stride * c for c in range(a, b)) for b in range(BUCKET + 1)]
                      for a in range(BUCKET + 1)]

    def __missing__(self, key: tuple[int, int]) -> tuple:
        lo, hi = key[0], key[0] + key[1]
        cells = self.cells
        spans = tuple((b, cells[max(lo - b * BUCKET, 0)][min(hi - b * BUCKET, BUCKET)])
                      for b in range(((hi - 1) >> SHIFT) + 1))
        if key[1] <= self.longest:
            self[key] = spans
        return spans


# Y * X * T, the product of disjoint single-bit sums, places one bit per
# cell and never carries.
_T_SPANS = _AxisSpans(BUCKET * BUCKET, COLUMN_T)
_X_SPANS = _AxisSpans(BUCKET)
_Y_SPANS = _AxisSpans(1)
# Shifts that fold a bucket mask's t slices, then its x rows, onto the y
# bits of its first row, which _Y_BITS keeps.
_FOLD = tuple(BUCKET ** 3 >> k for k in range(1, 2 * SHIFT + 1))
_Y_BITS = (1 << BUCKET) - 1


def _box_masks(box: Box3) -> list[tuple[tuple[int, int, int], int]]:
    """``(bucket key, cell mask)`` for every bucket the box touches."""
    (lt, lx, ly), (ht, hx, hy) = box
    bt, bx, by = lt >> SHIFT, lx >> SHIFT, ly >> SHIFT
    xys = [(bx + dx, by + dy, xm * ym) for dx, xm in _X_SPANS[lx & LOW, hx - lx]
           for dy, ym in _Y_SPANS[ly & LOW, hy - ly]]
    return [((bt + dt, x, y), xy * tm) for dt, tm in _T_SPANS[lt & LOW, ht - lt]
            for x, y, xy in xys]


def _columns(box: Box3) -> list[tuple[int, int]]:
    """The ``(x, y)`` columns that hold ``box`` as a t span, or ``[]``
    when its obstacle belongs in the bucket planes."""
    (lt, lx, ly), (ht, hx, hy) = box
    if ht - lt <= COLUMN_T or (hx - lx) * (hy - ly) > 2:
        return []
    return [(x, y) for x in range(lx, hx) for y in range(ly, hy)]


class DuplicateEntryError(Exception):
    pass


class UnknownEntryError(Exception):
    pass


class SolidOverlapError(Exception):
    """A solid insert would share a cell with an indexed solid."""


class BoxIndex:
    """Bucketed box index: one record per bucket, its solid cells and the
    bit planes of its obstacle counts, plus the t spans of the long thin
    obstacles per ``(x, y)`` column; only obstacles keep an entry."""

    bucket_size = BUCKET

    def __init__(self):
        self._entries: dict[str, Obstacle] = {}  # live obstacles by id
        self.records: dict[tuple[int, int, int], list[int]] = {}  # bucket -> [solid, planes...]
        self.columns: dict[tuple[int, int], list[tuple[int, int]]] = {}  # (x, y) -> [(lo.t, hi.t)]

    def __len__(self) -> int:
        return len(self._entries)

    def insert_solid(self, box: Box3) -> None:
        """Set the solid bits of ``box``'s cells, in one pass over its
        buckets.  A box that shares a cell with an indexed solid is
        :class:`SolidOverlapError`: the bits set before the clash are
        cleared, so the index is unchanged."""
        records = self.records
        (lt, lx, ly), (ht, hx, hy) = box
        bt, bx, by = lt >> SHIFT, lx >> SHIFT, ly >> SHIFT
        xs, ys = _X_SPANS[lx & LOW, hx - lx], _Y_SPANS[ly & LOW, hy - ly]
        for dt, tm in _T_SPANS[lt & LOW, ht - lt]:
            for dx, xm in xs:
                txm = tm * xm
                for dy, ym in ys:
                    key, mask = (bt + dt, bx + dx, by + dy), txm * ym
                    rec = records.get(key)
                    if rec is None:
                        records[key] = [mask]
                    elif rec[0] & mask:  # _box_masks lists the buckets in this order
                        for done, m in _box_masks(box):
                            if done == key:
                                break
                            rec = records[done]
                            rec[0] ^= m
                            if len(rec) == 1 and not rec[0]:
                                del records[done]
                        raise SolidOverlapError(box)
                    else:
                        rec[0] |= mask

    def insert(self, entry: Obstacle) -> None:
        """Index the obstacle ``entry``, whose id must be new: count it in
        the bucket planes, or keep it as a t span of each column when long
        and thin."""
        records = self.records
        if entry.id in self._entries:
            raise DuplicateEntryError(entry.id)
        lo, hi = entry.box
        columns = _columns(entry.box)
        for xy in columns:
            self.columns.setdefault(xy, []).append((lo.t, hi.t))
        for key, carry in () if columns else _box_masks(entry.box):
            rec = records.setdefault(key, [0])
            for i in range(1, len(rec)):
                plane = rec[i]
                rec[i] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:
                rec.append(carry)
        self._entries[entry.id] = entry

    def remove(self, eid: str) -> None:
        """Unindex a live obstacle; any other id, a solid's included, is
        :class:`UnknownEntryError`, so a solid's bits are never cleared."""
        box = self.get(eid).box
        del self._entries[eid]
        columns = _columns(box)
        span = (box.lo.t, box.hi.t)
        for xy in columns:
            spans = self.columns[xy]
            spans.remove(span)
            if not spans:
                del self.columns[xy]
        records = self.records
        for key, borrow in () if columns else _box_masks(box):
            rec = records[key]
            i = 1
            while borrow:
                plane = rec[i]
                rec[i] = plane ^ borrow
                borrow &= ~plane
                i += 1
            while len(rec) > 1 and not rec[-1]:
                rec.pop()
            if len(rec) == 1 and not rec[0]:
                del records[key]

    def get(self, eid: str) -> Obstacle:
        try:
            return self._entries[eid]
        except KeyError:
            raise UnknownEntryError(eid) from None

    def solid_rows(self, slab: Box3) -> int:
        """The rows of ``slab`` that hold a solid cell, as a bit mask: bit
        ``y - slab.lo.y`` is set when some solid cell of the slab has that
        ``y``, so the mask is 0 when no cell of the slab is solid.  Each
        bucket's solid cells in the slab fold over t and x onto its ``y``
        bits; a bucket's mask is built only when it holds solid cells."""
        records = self.records
        (lt, lx, ly), (ht, hx, hy) = slab
        bt, bx, by = lt >> SHIFT, lx >> SHIFT, ly >> SHIFT
        ts = _T_SPANS[lt & LOW, ht - lt]
        xs = _X_SPANS[lx & LOW, hx - lx]
        rows = 0
        for dy, ym in _Y_SPANS[ly & LOW, hy - ly]:
            m = 0
            for dt, tm in ts:
                for dx, xm in xs:
                    rec = records.get((bt + dt, bx + dx, by + dy))
                    if rec and rec[0]:
                        m |= rec[0] & ym * xm * tm
            if m:
                for shift in _FOLD:
                    m |= m >> shift
                m &= _Y_BITS
                base = ((by + dy) << SHIFT) - ly
                rows |= m << base if base >= 0 else m >> -base
        return rows

    def hits(self, probe: Box3) -> set[str]:
        """Ids of all obstacles whose boxes overlap the probe."""
        return {eid for eid, e in self._entries.items() if e.box.intersects(probe)}
