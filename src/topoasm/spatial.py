"""Spatial index over axis-aligned boxes in the space-time volume.

The index answers which registered boxes intersect a probe box, whether
a box holds a solid cell, and how many obstacles cover a cell.
Intersection follows the inclusive-exclusive convention of
:class:`topoasm.geom.Box3`, so boxes that merely share a face do not
collide.  Cells are hashed into lattice buckets of ``BUCKET`` cells per
edge, keyed ``(t >> SHIFT, x >> SHIFT, y >> SHIFT)`` (floor division,
negative coordinates included); a cell's bit in its bucket is
``(t & LOW) << T_SHIFT | (x & LOW) << SHIFT | y & LOW``.

Each bucket keeps one record, a ``list[int]`` of bit masks over its
cells:

* Entry 0 holds the **solid** cells (circuit, box and connection
  claims).  Solids are permanent: they are never removed and never
  exempt from a blocked-cell query, and no two of them share a cell.
* The entries after it are the bit planes, low bit first, of a per-cell
  count of the removable **obstacles** that cover the cell (bit-sliced
  counters, Knuth, *TAOCP* 4A, 7.1.3).  An obstacle insert ripples a
  carry of its per-bucket mask through the planes, a remove ripples a
  borrow; a zero top plane is popped, and a record with no bits left is
  dropped.

Inserts, overlap probes and cell tests are therefore bit operations.
:attr:`BoxIndex.rows` keeps each obstacle's row ``lo + hi``, so a
blocked-cell query can subtract the obstacles it exempts.  ``hits``
scans every entry; only clash messages and tests need it.
"""

from __future__ import annotations

from typing import NamedTuple

from .geom import Box3

BUCKET = 8  # lattice units per bucket edge; a power of two
SHIFT = BUCKET.bit_length() - 1  # bucket key of a coordinate: c >> SHIFT
LOW = BUCKET - 1  # a coordinate's offset in its bucket: c & LOW
T_SHIFT = 2 * SHIFT  # a cell's bit: (t & LOW) << T_SHIFT | (x & LOW) << SHIFT | y & LOW


def _span_table(stride: int) -> list[list[int]]:
    """``table[lo][hi]`` has the bits ``stride * c`` for ``lo <= c < hi``."""
    return [[sum(1 << (stride * c) for c in range(lo, hi)) for hi in range(BUCKET + 1)]
            for lo in range(BUCKET + 1)]


# A box's mask in one bucket is Y * X * T: the product of disjoint
# single-bit sums places one bit per cell and never carries.
_T_SPAN = _span_table(BUCKET * BUCKET)
_X_SPAN = _span_table(BUCKET)
_Y_SPAN = _span_table(1)


def _axis_spans(lo: int, hi: int, table) -> list[tuple[int, int]]:
    """``(bucket, mask)`` for every bucket that ``[lo, hi)`` touches on one axis."""
    first, last = lo >> SHIFT, (hi - 1) >> SHIFT
    if first == last:
        return [(first, table[lo & LOW][hi - (first << SHIFT)])]
    full = table[0][BUCKET]
    return ([(first, table[lo & LOW][BUCKET])] + [(b, full) for b in range(first + 1, last)]
            + [(last, table[0][hi - (last << SHIFT)])])


def _box_masks(box: Box3) -> list[tuple[tuple[int, int, int], int]]:
    """``(bucket key, cell mask)`` for every bucket the box touches."""
    (lt, lx, ly), (ht, hx, hy) = box
    ts = _axis_spans(lt, ht, _T_SPAN)
    xys = [(bx, by, xm * ym) for bx, xm in _axis_spans(lx, hx, _X_SPAN)
           for by, ym in _axis_spans(ly, hy, _Y_SPAN)]
    return [((bt, bx, by), xy * tm) for bt, tm in ts for bx, by, xy in xys]


class DuplicateEntryError(Exception):
    pass


class UnknownEntryError(Exception):
    pass


class SolidOverlapError(Exception):
    """A solid insert would share a cell with an indexed solid."""


class IndexEntry(NamedTuple):
    id: str
    box: Box3
    tag: str  # circuit | box | connection | obstacle


class BoxIndex:
    """Bucketed box index: one record per bucket, its solid cells and the
    bit planes of its obstacle counts."""

    bucket_size = BUCKET

    def __init__(self):
        self._entries: dict[str, IndexEntry] = {}
        self.records: dict[tuple[int, int, int], list[int]] = {}  # bucket -> [solid, planes...]
        self.rows: dict[str, tuple] = {}  # obstacle id -> (lo.t, lo.x, lo.y, hi.t, hi.x, hi.y)

    def __len__(self) -> int:
        return len(self._entries)

    def insert(self, entry: IndexEntry, solid: bool = False) -> None:
        """Index ``entry``; a ``solid`` entry is permanent and may share no
        cell with another solid (:class:`SolidOverlapError`, index unchanged)."""
        if entry.id in self._entries:
            raise DuplicateEntryError(entry.id)
        records = self.records
        masks = _box_masks(entry.box)
        if solid:
            for key, mask in masks:
                rec = records.get(key)
                if rec is not None and rec[0] & mask:
                    raise SolidOverlapError(entry.id)
            for key, mask in masks:
                rec = records.get(key)
                if rec is None:
                    records[key] = [mask]
                else:
                    rec[0] |= mask
        else:
            for key, carry in masks:
                rec = records.setdefault(key, [0])
                for i in range(1, len(rec)):
                    plane = rec[i]
                    rec[i] = plane ^ carry
                    carry &= plane
                    if not carry:
                        break
                else:
                    rec.append(carry)
            lo, hi = entry.box
            self.rows[entry.id] = lo + hi
        self._entries[entry.id] = entry

    def remove(self, eid: str) -> None:
        """Unindex an obstacle; solids are permanent (``ValueError``)."""
        if self.rows.pop(eid, None) is None:
            if eid in self._entries:
                raise ValueError(f"solid entry {eid} is permanent")
            raise UnknownEntryError(eid)
        records = self.records
        for key, borrow in _box_masks(self._entries.pop(eid).box):
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

    def get(self, eid: str) -> IndexEntry:
        try:
            return self._entries[eid]
        except KeyError:
            raise UnknownEntryError(eid) from None

    def overlaps_solid(self, box: Box3) -> bool:
        """Whether any cell of ``box`` is solid; a bucket's mask is built
        only when the bucket holds solid cells."""
        records = self.records
        (lt, lx, ly), (ht, hx, hy) = box
        xs = _axis_spans(lx, hx, _X_SPAN)
        ys = _axis_spans(ly, hy, _Y_SPAN)
        for bt, tm in _axis_spans(lt, ht, _T_SPAN):
            for bx, xm in xs:
                for by, ym in ys:
                    rec = records.get((bt, bx, by))
                    if rec and rec[0] and rec[0] & ym * xm * tm:
                        return True
        return False

    def hits(self, probe: Box3, tags=None) -> set[str]:
        """Ids of all entries whose boxes overlap the probe.

        ``tags`` optionally restricts the result to entries with one of
        the given tags.
        """
        return {eid for eid, e in self._entries.items()
                if (tags is None or e.tag in tags) and e.box.intersects(probe)}
