"""Spatial index over axis-aligned boxes in the space-time volume.

The index answers one question: which registered boxes intersect a
probe box.  Intersection follows the inclusive-exclusive convention of
:class:`topoasm.geom.Box3`, so boxes that merely share a face do not
collide.  Internally entries are hashed into coarse lattice buckets,
which keeps collision probes cheap without any balancing logic; the
hit-set contract is the only behaviour callers may rely on.

Bucket layout: each bucket maps an entry id to the entry's row
``(lo.t, lo.x, lo.y, hi.t, hi.x, hi.y)``.  The row is one tuple, built
at insert and shared by every bucket the entry touches, so ``hits`` and
``covered`` test each candidate by comparing its row in place, with
no per-candidate method call.  ``covered`` answers the router's
per-cell question in one scan of the cell's bucket: it stops at the
first row that contains the cell and is not exempt, and builds no list.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .geom import Box3


class DuplicateEntryError(Exception):
    pass


class UnknownEntryError(Exception):
    pass


class IndexEntry(NamedTuple):
    id: str
    box: Box3
    tag: str  # circuit | box | connection | obstacle


class BoxIndex:
    """Bucketed box index with insert / remove / hits."""

    bucket_size = 8  # lattice units per bucket edge

    def __init__(self):
        self._entries: dict[str, IndexEntry] = {}
        self._buckets: dict[tuple[int, int, int], dict[str, tuple]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def _bucket_range(self, box: Box3):
        s = self.bucket_size
        lo, hi = box
        # hi is exclusive; the last occupied cell is hi - 1
        return itertools.product(
            range(lo.t // s, (hi.t - 1) // s + 1),
            range(lo.x // s, (hi.x - 1) // s + 1),
            range(lo.y // s, (hi.y - 1) // s + 1),
        )

    def insert(self, entry: IndexEntry) -> None:
        if entry.id in self._entries:
            raise DuplicateEntryError(entry.id)
        self._entries[entry.id] = entry
        lo, hi = entry.box
        row = lo + hi
        for key in self._bucket_range(entry.box):
            self._buckets.setdefault(key, {})[entry.id] = row

    def remove(self, eid: str) -> None:
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

    def hits(self, probe: Box3, tags=None) -> set[str]:
        """Ids of all entries whose boxes overlap the probe.

        ``tags`` optionally restricts the result to entries with one of
        the given tags.
        """
        (plt, plx, ply), (pht, phx, phy) = probe
        entries = self._entries
        out = set()
        for key in self._bucket_range(probe):
            for eid, (lt, lx, ly, ht, hx, hy) in self._buckets.get(key, {}).items():
                if (
                    lt < pht and plt < ht and lx < phx and plx < hx and ly < phy and ply < hy
                    and (tags is None or entries[eid].tag in tags)
                ):
                    out.add(eid)
        return out

    def covered(self, cell: tuple[int, int, int], exempt) -> bool:
        """Whether an entry whose id is not in ``exempt`` contains ``cell``."""
        t, x, y = cell
        s = self.bucket_size
        rows = self._buckets.get((t // s, x // s, y // s))
        if rows is not None:
            for eid, (lt, lx, ly, ht, hx, hy) in rows.items():
                if lt <= t < ht and lx <= x < hx and ly <= y < hy and eid not in exempt:
                    return True
        return False
