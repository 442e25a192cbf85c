"""Spatial index over axis-aligned boxes in the space-time volume.

The index answers which registered boxes intersect a probe box, and
whether a cell is covered.  Intersection follows the inclusive-exclusive
convention of :class:`topoasm.geom.Box3`, so boxes that merely share a
face do not collide.  Cells are hashed into lattice buckets of
``BUCKET`` cells per edge, keyed ``(t >> 3, x >> 3, y >> 3)`` (floor
division, negative coordinates included).  Entries come in two kinds,
held in two representations:

* **Solids** (circuit, box and connection claims) are permanent: they
  are never removed and never exempt from a blocked-cell query, and no
  two of them share a cell.  Each bucket keeps one int whose bits are
  the bucket's solid cells; a cell's bit is
  ``(t & 7) << 6 | (x & 7) << 3 | (y & 7)``.  An insert, an overlap
  probe and a cell test are bit operations on those masks.
* **Obstacles** are removable.  Each bucket maps an obstacle's id to its
  row ``(lo.t, lo.x, lo.y, hi.t, hi.x, hi.y)``; the row is one tuple,
  built at insert and shared by every bucket the obstacle touches, so
  a query compares it in place.

``covered`` answers the router's per-cell question: it tests the cell's
solid bit, then scans the bucket's obstacle rows and stops at the first
that contains the cell and is not exempt.  ``hits`` returns entries of
both kinds; it finds solids by a scan over all of them, which only
clash messages and tests need.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .geom import Box3

BUCKET = 8  # lattice units per bucket edge; a power of two
_SHIFT = BUCKET.bit_length() - 1  # bucket key of a coordinate: c >> _SHIFT
_LOW = BUCKET - 1  # a coordinate's offset in its bucket: c & _LOW
_T_SHIFT = 2 * _SHIFT  # a cell's bit: (t & _LOW) << _T_SHIFT | (x & _LOW) << _SHIFT | y & _LOW


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
    first, last = lo >> _SHIFT, (hi - 1) >> _SHIFT
    if first == last:
        return [(first, table[lo & _LOW][hi - (first << _SHIFT)])]
    full = table[0][BUCKET]
    return ([(first, table[lo & _LOW][BUCKET])] + [(b, full) for b in range(first + 1, last)]
            + [(last, table[0][hi - (last << _SHIFT)])])


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
    """Bucketed box index: permanent solids as bit masks, removable
    obstacles as rows."""

    bucket_size = BUCKET

    def __init__(self):
        self._entries: dict[str, IndexEntry] = {}
        self._solids: set[str] = set()
        self._occupied: dict[tuple[int, int, int], int] = {}  # bucket -> solid cell bits
        self._buckets: dict[tuple[int, int, int], dict[str, tuple]] = {}  # obstacle rows

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _bucket_range(box: Box3):
        (lt, lx, ly), (ht, hx, hy) = box
        # hi is exclusive; the last occupied cell is hi - 1
        return itertools.product(
            range(lt >> _SHIFT, ((ht - 1) >> _SHIFT) + 1),
            range(lx >> _SHIFT, ((hx - 1) >> _SHIFT) + 1),
            range(ly >> _SHIFT, ((hy - 1) >> _SHIFT) + 1),
        )

    def insert(self, entry: IndexEntry, solid: bool = False) -> None:
        """Index ``entry``; a ``solid`` entry is permanent and may share no
        cell with another solid (:class:`SolidOverlapError`, index unchanged)."""
        if entry.id in self._entries:
            raise DuplicateEntryError(entry.id)
        if solid:
            if self.overlaps_solid(entry.box):
                raise SolidOverlapError(entry.id)
            occupied = self._occupied
            for key, mask in _box_masks(entry.box):
                occupied[key] = occupied.get(key, 0) | mask
            self._solids.add(entry.id)
        else:
            lo, hi = entry.box
            row = lo + hi
            for key in self._bucket_range(entry.box):
                self._buckets.setdefault(key, {})[entry.id] = row
        self._entries[entry.id] = entry

    def remove(self, eid: str) -> None:
        """Unindex an obstacle; solids are permanent (``ValueError``)."""
        if eid in self._solids:
            raise ValueError(f"solid entry {eid} is permanent")
        entry = self._entries.pop(eid, None)
        if entry is None:
            raise UnknownEntryError(eid)
        for key in self._bucket_range(entry.box):
            rows = self._buckets.get(key)
            if rows is not None:
                rows.pop(eid, None)
                if not rows:
                    del self._buckets[key]

    def get(self, eid: str) -> IndexEntry:
        try:
            return self._entries[eid]
        except KeyError:
            raise UnknownEntryError(eid) from None

    def overlaps_solid(self, box: Box3) -> bool:
        """Whether any cell of ``box`` is solid; a bucket's mask is built
        only when the bucket holds solid cells."""
        occupied = self._occupied
        (lt, lx, ly), (ht, hx, hy) = box
        xs = _axis_spans(lx, hx, _X_SPAN)
        ys = _axis_spans(ly, hy, _Y_SPAN)
        for bt, tm in _axis_spans(lt, ht, _T_SPAN):
            for bx, xm in xs:
                for by, ym in ys:
                    bits = occupied.get((bt, bx, by))
                    if bits and bits & ym * xm * tm:
                        return True
        return False

    def hits(self, probe: Box3, tags=None) -> set[str]:
        """Ids of all entries whose boxes overlap the probe.

        ``tags`` optionally restricts the result to entries with one of
        the given tags.
        """
        (plt, plx, ply), (pht, phx, phy) = probe
        entries = self._entries
        out = {eid for eid in self._solids
               if (tags is None or entries[eid].tag in tags) and entries[eid].box.intersects(probe)}
        for key in self._bucket_range(probe):
            for eid, (lt, lx, ly, ht, hx, hy) in self._buckets.get(key, {}).items():
                if (
                    lt < pht and plt < ht and lx < phx and plx < hx and ly < phy and ply < hy
                    and (tags is None or entries[eid].tag in tags)
                ):
                    out.add(eid)
        return out

    def covered(self, cell: tuple[int, int, int], exempt) -> bool:
        """Whether a solid, or an obstacle whose id is not in ``exempt``,
        contains ``cell``."""
        t, x, y = cell
        key = (t >> _SHIFT, x >> _SHIFT, y >> _SHIFT)
        if self._occupied.get(key, 0) >> (
            (t & _LOW) << _T_SHIFT | (x & _LOW) << _SHIFT | y & _LOW
        ) & 1:
            return True
        rows = self._buckets.get(key)
        if rows is not None:
            for eid, (lt, lx, ly, ht, hx, hy) in rows.items():
                if lt <= t < ht and lx <= x < hx and ly <= y < hy and eid not in exempt:
                    return True
        return False
