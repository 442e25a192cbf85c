import random

import pytest

from topoasm.geom import Point3, box_from_extents
from topoasm.spatial import BoxIndex, DuplicateEntryError, IndexEntry, UnknownEntryError


def rand_box(rng, span=60, max_ext=8):
    lo = Point3(rng.randint(-span, span), rng.randint(-span, span), rng.randint(-span, span))
    return box_from_extents(
        lo, (rng.randint(1, max_ext), rng.randint(1, max_ext), rng.randint(1, max_ext))
    )


def brute_hits(entries, probe):
    return {e.id for e in entries if e.box.intersects(probe)}


def test_insert_and_point_query():
    idx = BoxIndex()
    box = box_from_extents(Point3(0, 0, 0), (1, 1, 1))
    idx.insert(IndexEntry("a", box, "circuit"))
    assert len(idx) == 1
    assert idx.hits(box) == {"a"}


def test_duplicate_id_rejected():
    idx = BoxIndex()
    box = box_from_extents(Point3(0, 0, 0), (1, 1, 1))
    idx.insert(IndexEntry("a", box, "circuit"))
    with pytest.raises(DuplicateEntryError):
        idx.insert(IndexEntry("a", box_from_extents(Point3(5, 0, 0), (1, 1, 1)), "circuit"))


def test_remove_then_empty():
    idx = BoxIndex()
    box = box_from_extents(Point3(3, 3, 3), (2, 2, 2))
    idx.insert(IndexEntry("a", box, "box"))
    idx.remove("a")
    assert len(idx) == 0
    assert idx.hits(box) == set()
    with pytest.raises(UnknownEntryError):
        idx.remove("a")


def test_face_touching_is_not_a_hit():
    idx = BoxIndex()
    idx.insert(IndexEntry("a", box_from_extents(Point3(0, 0, 0), (2, 2, 2)), "box"))
    assert idx.hits(box_from_extents(Point3(2, 0, 0), (2, 2, 2))) == set()


def test_thousand_boxes_all_retrievable_by_point_probe():
    rng = random.Random(11)
    idx = BoxIndex()
    entries = []
    for i in range(1000):
        e = IndexEntry(f"e{i}", rand_box(rng), "box")
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
        e = IndexEntry(f"e{i}", rand_box(rng), "connection")
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
            e = IndexEntry(f"s{counter}", rand_box(rng), "obstacle")
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
            idx.insert(IndexEntry(f"e{i}", boxes[i], "box"))
        return [frozenset(idx.hits(p)) for p in probes]

    forward = build(range(200))
    shuffled = list(range(200))
    rng.shuffle(shuffled)
    assert build(shuffled) == forward


def test_tag_filtered_hits():
    idx = BoxIndex()
    b = box_from_extents(Point3(0, 0, 0), (4, 4, 4))
    idx.insert(IndexEntry("solid", b, "circuit"))
    idx.insert(IndexEntry("obs", box_from_extents(Point3(1, 1, 1), (4, 4, 4)), "obstacle"))
    probe = box_from_extents(Point3(0, 0, 0), (8, 8, 8))
    assert idx.hits(probe) == {"solid", "obs"}
    assert idx.hits(probe, tags=("circuit", "box")) == {"solid"}


def rand_rod(rng, span=40):
    """A box longer than 64 in t and 1-2 cells wide in x and y, the shape
    of the rail and lifetime guides."""
    lo = Point3(rng.randint(-span, span), rng.randint(-span, span), rng.randint(-span, span))
    return box_from_extents(lo, (rng.randint(65, 140), rng.randint(1, 2), rng.randint(1, 2)))


def test_covering_matches_brute_force_under_random_scripts():
    """``covered(cell, exempt)`` is True exactly when a live box that is
    not exempt contains the cell, under seeded insert/remove scripts whose
    boxes often span many buckets or are long thin rods.  Probe cells
    include every live box's low corner, its last cell and the first
    cells past its high faces; exempt sets include the empty set, every
    live id and random subsets of the live ids."""
    for seed in range(8):
        rng = random.Random(seed)
        idx = BoxIndex()
        live = {}
        for step in range(300):
            if rng.random() < 0.65 or not live:
                roll = rng.random()
                box = (rand_rod(rng) if roll < 0.2
                       else rand_box(rng, span=40, max_ext=30 if roll < 0.45 else 4))
                e = IndexEntry(f"s{step}", box, "obstacle")
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
            for cell in probes:
                covers = {e.id for e in live.values() if e.box.contains_cell(cell)}
                for exempt in exempts:
                    want = bool(covers - exempt)
                    assert idx.covered(cell, exempt) is want, (seed, step, cell, sorted(exempt))
