"""Spatial index over axis-aligned boxes in the space-time volume.

The index answers one question: which registered boxes intersect a
probe box.  Intersection follows the inclusive-exclusive convention of
:class:`topoasm.geom.Box3`, so boxes that merely share a face do not
collide.  Internally entries are hashed into coarse lattice buckets,
which keeps collision probes cheap without any balancing logic; the
hit-set contract is the only behaviour callers may rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geom import Box3


class DuplicateEntryError(Exception):
    pass


class UnknownEntryError(Exception):
    pass


@dataclass(frozen=True)
class IndexEntry:
    id: str
    box: Box3
    tag: str  # circuit | box | connection | pool | obstacle


class BoxIndex:
    """Bucketed box index with insert / remove / hits."""

    def __init__(self, bucket_size: int = 8):
        self.bucket_size = bucket_size
        self._entries: dict[str, IndexEntry] = {}
        self._buckets: dict[tuple[int, int, int], set[str]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, eid: str) -> bool:
        return eid in self._entries

    def _bucket_range(self, box: Box3):
        s = self.bucket_size
        # hi is exclusive; the last occupied cell is hi - 1
        for bt in range(box.lo.t // s, (box.hi.t - 1) // s + 1):
            for bx in range(box.lo.x // s, (box.hi.x - 1) // s + 1):
                for by in range(box.lo.y // s, (box.hi.y - 1) // s + 1):
                    yield (bt, bx, by)

    def insert(self, entry: IndexEntry) -> None:
        if entry.id in self._entries:
            raise DuplicateEntryError(entry.id)
        self._entries[entry.id] = entry
        for key in self._bucket_range(entry.box):
            self._buckets.setdefault(key, set()).add(entry.id)

    def remove(self, eid: str) -> None:
        entry = self._entries.pop(eid, None)
        if entry is None:
            raise UnknownEntryError(eid)
        for key in self._bucket_range(entry.box):
            ids = self._buckets.get(key)
            if ids is not None:
                ids.discard(eid)
                if not ids:
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
        out = set()
        for key in self._bucket_range(probe):
            for eid in self._buckets.get(key, ()):
                if eid in out:
                    continue
                entry = self._entries[eid]
                if tags is not None and entry.tag not in tags:
                    continue
                if entry.box.intersects(probe):
                    out.add(eid)
        return out

    def entries(self):
        return list(self._entries.values())
