import math
import random
from fractions import Fraction
from math import comb

import pytest

from topoasm import sched
from topoasm.engine import SynthesisConfig
from topoasm.geom import BOX_EXTENTS, Point3, box_from_extents
from topoasm.route import World
from topoasm.sched import (
    DistillationLayer,
    PlacementError,
    SPIRAL_GAP,
    SchedulerPolicy,
    place_alap_layer,
    place_asap_stack,
    place_spiral_layer,
    required_round_size,
)

from conftest import journal_claims


# -- round sizing ---------------------------------------------------------------


def tail_ge_k_dp(n, p_success, k):
    """P[Binomial(n, p) >= k] via an incremental distribution table."""
    dist = [1.0]
    for _ in range(n):
        nxt = [0.0] * (len(dist) + 1)
        for i, pr in enumerate(dist):
            nxt[i] += pr * (1 - p_success)
            nxt[i + 1] += pr * p_success
        dist = nxt
    return sum(dist[k:])


def oracle_round_size(k, p_fail, confidence, n_max=200):
    for n in range(k, n_max + 1):
        if tail_ge_k_dp(n, 1 - p_fail, k) >= confidence:
            return n
    raise AssertionError("oracle exhausted")


def test_round_size_certain_success():
    assert required_round_size(1, 0.0, 0.999) == 1
    assert required_round_size(5, 0.0, 0.5) == 5


def test_round_size_fourteen_for_two_at_half():
    assert required_round_size(2, 0.5, 0.999) == 14


def test_round_size_lower_confidence():
    assert required_round_size(2, 0.5, 0.99) == 11  # frozen from the tail oracle


def test_round_size_matches_dp_oracle_small_grid():
    for k in range(1, 6):
        for p_fail in (0.0, 0.25, 0.5, 0.75):
            for conf in (0.9, 0.99, 0.999):
                got = required_round_size(k, p_fail, conf)
                assert got == oracle_round_size(k, p_fail, conf)
                assert got <= 64


def exact_tail_ge_k(n, p_fail, k):
    """P[Binomial(n, 1 - p_fail) >= k] in exact rationals, as 1 - P[X < k]."""
    q = Fraction(p_fail)
    return 1 - sum(comb(n, i) * (1 - q) ** i * q ** (n - i) for i in range(k))


@pytest.mark.parametrize("k, p_fail, n", [(7, "0.99", 1801), (5, "0.995", 2954)])
def test_round_size_past_float_binomial_range(k, p_fail, n):
    """Round sizes above about 1030 boxes, where a binomial coefficient no
    longer fits in a float, match an exact lower-tail oracle."""
    assert required_round_size(k, float(p_fail), 0.999) == n
    conf = Fraction("0.999")
    assert exact_tail_ge_k(n, p_fail, k) >= conf > exact_tail_ge_k(n - 1, p_fail, k)


def linear_round_sizes(k, p_fail, confidences):
    """For each confidence, the first n from k upward whose tail clears it:
    a linear scan over the same float tail ``required_round_size`` computes,
    one scan for all confidences.  ``math.lgamma`` is tabulated, which leaves
    every term's value unchanged."""
    p = 1.0 - p_fail
    if p == 1.0:
        return {c: k for c in confidences}
    log_p, log_q = math.log(p), math.log(1.0 - p)
    lgamma = [None] + [math.lgamma(m) for m in range(1, k + 2)]
    found = {}
    n = k
    while len(found) < len(confidences):
        if len(lgamma) == n + 1:
            lgamma.append(math.lgamma(n + 1))
        head = lgamma[n + 1]
        lower = sum(
            math.exp(head - lgamma[i + 1] - lgamma[n - i + 1] + i * log_p + (n - i) * log_q)
            for i in range(k)
        )
        for c in confidences:
            if c not in found and 1.0 - lower >= c:
                found[c] = n
        n += 1
    return found


@pytest.mark.parametrize("p_fail", [0.0, 0.1, 0.5, 0.9, 0.99])
def test_round_size_equals_linear_scan(p_fail):
    confidences = (0.5, 0.9, 0.999, 0.999999)
    for k in range(1, 65):
        want = linear_round_sizes(k, p_fail, confidences)
        assert {c: required_round_size(k, p_fail, c) for c in confidences} == want, k


def test_round_size_monotonicity():
    base = required_round_size(2, 0.5, 0.99)
    assert required_round_size(3, 0.5, 0.99) >= base
    assert required_round_size(2, 0.6, 0.99) >= base
    assert required_round_size(2, 0.5, 0.999) >= base


def test_policy_validation():
    with pytest.raises(ValueError):
        SchedulerPolicy(kind="eager")
    with pytest.raises(ValueError):
        SchedulerPolicy(p_fail=1.0)
    with pytest.raises(ValueError):
        SchedulerPolicy(confidence=0.0)
    with pytest.raises(ValueError):
        SchedulerPolicy(condition=("temporal", 0))
    # malformed shapes: missing or extra values, unknown names, non-integers
    for cond in ((), ("temporal",), ("pool",), ("bogus", 3), ("after-round", 5),
                 ("temporal", 15, 2), ("pool", "3"), ["after-round"]):
        with pytest.raises(ValueError, match="bad condition"):
            SchedulerPolicy(condition=cond)
    for cond in (("after-round",), ("temporal", 1), ("pool", 0)):
        SchedulerPolicy(condition=cond)


def test_config_rejects_unreachable_pool_threshold_and_no_rounds():
    for threshold in (0, 4):
        SynthesisConfig(policy=SchedulerPolicy(condition=("pool", threshold)), pool_cap=4)
    for threshold in (-1, 5):
        with pytest.raises(ValueError):
            SynthesisConfig(policy=SchedulerPolicy(condition=("pool", threshold)), pool_cap=4)
    for cap in (0, -1):
        with pytest.raises(ValueError):
            SynthesisConfig(pool_cap=cap)
    SynthesisConfig(max_rounds=1)
    for rounds in (0, -5):
        with pytest.raises(ValueError):
            SynthesisConfig(max_rounds=rounds)


# -- placement --------------------------------------------------------------------


def unit_channel():
    return box_from_extents(Point3(0, 0, 0), (4, 1, 1))


def no_pairwise_overlap(boxes):
    for i, a in enumerate(boxes):
        for b in boxes[i + 1:]:
            if a.footprint.intersects(b.footprint):
                return False
    return True


def test_spiral_single_box_adjacent_to_seed():
    w = World()
    seed = unit_channel()
    w.claim("seed", seed, "circuit")
    layer = place_spiral_layer(0, 1, 0, w, seed)
    (box,) = layer.boxes
    assert not box.footprint.intersects(seed)
    # within the first ring
    assert abs(box.footprint.lo.x) <= 12 and abs(box.footprint.lo.y) <= 12


def test_spiral_layer_collision_free():
    w = World()
    channel = unit_channel()
    w.claim("seed", channel, "circuit")
    layer = place_spiral_layer(4, 4, 0, w, channel)
    assert len(layer.boxes) == 8
    assert no_pairwise_overlap(layer.boxes)
    assert all(b.footprint.lo.t == 0 for b in layer.boxes)


def test_spiral_determinism():
    def run():
        w = World()
        channel = unit_channel()
        w.claim("seed", channel, "circuit")
        layer = place_spiral_layer(3, 5, 7, w, channel)
        return [(b.box_id, b.footprint.lo.as_tuple()) for b in layer.boxes]

    assert run() == run()


def test_spiral_large_round_balances_around_seed():
    w = World()
    channel = unit_channel()
    w.claim("seed", channel, "circuit")
    layer = place_spiral_layer(0, 64, 0, w, channel)
    assert no_pairwise_overlap(layer.boxes)
    cx = sum(b.footprint.lo.x + b.footprint.extents[1] / 2 for b in layer.boxes) / 64
    cy = sum(b.footprint.lo.y + b.footprint.extents[2] / 2 for b in layer.boxes) / 64
    seed_cx, seed_cy = 0.5, 0.5
    pitch = max(BOX_EXTENTS["A"][1:]) + SPIRAL_GAP
    assert abs(cx - seed_cx) <= pitch
    assert abs(cy - seed_cy) <= pitch


def test_spiral_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(sched, "MAX_RINGS", 1)
    w = World()
    channel = unit_channel()
    with pytest.raises(PlacementError):
        place_spiral_layer(64, 64, 0, w, channel)


def reference_spiral_layer(n_a, n_y, trigger_time, world, channel, round_id=0):
    """The spiral placer that sends every candidate to the index, kept as
    the reference for the one that skips probes beside the box just
    placed.  Returns the layer and each probe it sent with the footprint
    of the box placed before it in the round (None for the first box)."""
    layer = DistillationLayer(round_id, trigger_time)
    walk = sched._spiral_positions(channel)
    probes = []
    for i, kind in enumerate(["A"] * n_a + ["Y"] * n_y):
        dt, dx, dy = BOX_EXTENTS[kind]
        previous = layer.boxes[-1].footprint if layer.boxes else None
        while True:
            cx, cy = next(walk)
            lo = Point3(trigger_time, cx - dx // 2, cy - dy // 2)
            footprint = box_from_extents(lo, (dt, dx, dy))
            probe = footprint.inflated(0, SPIRAL_GAP, SPIRAL_GAP)
            probes.append((probe, previous))
            if world.is_free(probe):
                break
        box = sched._mk_box(f"r{round_id}.{kind}{i}", kind, footprint)
        world.claim(box.box_id, box.footprint, "box")
        layer.boxes.append(box)
    return layer, probes


def overlaps_xy(a, b):
    return a.lo.x < b.hi.x and b.lo.x < a.hi.x and a.lo.y < b.hi.y and b.lo.y < a.hi.y


def test_spiral_skips_exactly_the_probes_beside_the_box_just_placed():
    """On random worlds (solids claimed around a channel, several rounds
    whose boxes overlap in t), the spiral placer places the reference's
    boxes and sends the index exactly the reference's probes less those
    whose x-y rectangle overlaps the box placed just before."""
    rng = random.Random(23)
    skipped = blocked_elsewhere = 0
    for trial in range(30):
        channel = box_from_extents(
            Point3(0, rng.randint(-4, 4), rng.randint(-4, 4)),
            (rng.randint(8, 40), rng.randint(1, 24), rng.randint(1, 12)),
        )
        ref_world, world = World(), World()
        sent = []

        def recording_is_free(box, _orig=world.is_free):
            sent.append(box)
            return _orig(box)

        world.is_free = recording_is_free
        solids = [channel]
        for _ in range(rng.randint(0, 25)):
            lo = Point3(rng.randint(0, 30), rng.randint(-30, 40), rng.randint(-30, 30))
            solids.append(box_from_extents(lo, (rng.randint(1, 8), rng.randint(1, 6), rng.randint(1, 6))))
        for i, box in enumerate(solids):
            if ref_world.is_free(box):
                for w in (ref_world, world):
                    w.claim(f"solid{i}", box, "circuit")
        for round_id in range(rng.randint(1, 4)):
            n_a, n_y = rng.randint(0, 6), rng.randint(0, 9)
            trigger = rng.randint(0, 12)
            want, probes = reference_spiral_layer(n_a, n_y, trigger, ref_world, channel, round_id)
            del sent[:]
            got = place_spiral_layer(n_a, n_y, trigger, world, channel, round_id)
            assert [(b.box_id, b.kind, b.footprint, b.port) for b in got.boxes] == [
                (b.box_id, b.kind, b.footprint, b.port) for b in want.boxes
            ]
            assert sent == [p for p, prev in probes if prev is None or not overlaps_xy(p, prev)]
            skipped += len(probes) - len(sent)
            blocked_elsewhere += len(sent) - len(got.boxes)
    assert skipped > 500 and blocked_elsewhere > 50


def test_asap_stack_before_circuit_start():
    w = World()
    layer = place_asap_stack(6, 10, w, stack_width=20)
    assert len(layer.boxes) == 16
    assert no_pairwise_overlap(layer.boxes)
    assert all(b.footprint.hi.t <= 0 for b in layer.boxes)


def test_alap_layer_ends_before_demand():
    w = World()
    channel = unit_channel()
    everything = []
    for demand_t, rid in ((10, 1), (13, 2)):
        layer = place_alap_layer(2, 3, demand_t, w, channel, round_id=rid)
        assert all(b.footprint.hi.t <= demand_t for b in layer.boxes)
        everything.extend(layer.boxes)
    assert no_pairwise_overlap(everything)


def reference_alap_layer(n_a, n_y, demand_time, world, channel, round_id=0):
    """The alap placer that probes every candidate row with
    ``World.is_free``, one row up after each miss, kept as the reference
    for the one that reads a column's free rows from the index."""
    t0 = demand_time - sched.BOX_DEPTH - 1
    layer = DistillationLayer(round_id, t0)
    kinds = ["A"] * n_a + ["Y"] * n_y
    base_x = channel.lo.x - 1
    floor_y = sched.ALAP_WALL_FLOOR
    top_y = floor_y + sched.ALAP_WALL_HEIGHT
    y, col_width, x_col = floor_y, 0, base_x
    for i, kind in enumerate(kinds):
        dt, dx, dy = BOX_EXTENTS[kind]
        placed = None
        while placed is None:
            if y + dy > top_y:
                y = floor_y
                x_col -= (col_width + 1) if col_width else (dx + 1)
                col_width = 0
                if x_col < base_x - (96 + len(kinds)) * (dx + 1):
                    raise PlacementError("alap wall ran away from the channel")
            footprint = box_from_extents(Point3(t0, x_col - dx, y), (dt, dx, dy))
            if world.is_free(footprint):
                placed = footprint
                y += dy + 1
                col_width = max(col_width, dx)
            else:
                y += 1
        box = sched._mk_box(f"r{round_id}.{kind}{i}", kind, placed)
        world.claim(box.box_id, box.footprint, "box")
        layer.boxes.append(box)
    return layer


def test_alap_row_masks_place_the_probing_reference_boxes():
    """On random worlds (solid blocks and thin committed connections across
    the wall, several rounds whose slabs overlap in t), the alap placer
    places exactly the boxes of the reference that probes row by row, and
    sends the index no ``is_free`` probe."""
    rng = random.Random(25)
    columns = placed = 0
    misses = []
    for trial in range(30):
        channel = box_from_extents(
            Point3(0, rng.randint(-4, 4), rng.randint(-4, 4)),
            (rng.randint(8, 40), rng.randint(1, 24), rng.randint(1, 12)),
        )
        ref_world, world = World(), World()

        def counted_is_free(box, _orig=ref_world.is_free):
            free = _orig(box)
            if not free:
                misses.append(box)
            return free

        ref_world.is_free = counted_is_free
        world.is_free = lambda box: pytest.fail(f"probed {box}")
        x0 = channel.lo.x - 1
        solids = []
        for _ in range(rng.randint(0, 12)):
            lo = Point3(rng.randint(0, 30), rng.randint(x0 - 30, x0), rng.randint(-4, 30))
            solids.append(box_from_extents(lo, (rng.randint(1, 8), rng.randint(1, 6), rng.randint(1, 6))))
        for _ in range(rng.randint(0, 12)):
            # a connection one cell thick, running along x, y or t through the wall
            t, x, y = rng.randint(0, 30), rng.randint(x0 - 30, x0), rng.randint(-3, 30)
            ext = [1, 1, 1]
            ext[rng.randrange(3)] = rng.randint(5, 40)
            solids.append(box_from_extents(Point3(t, x, y), tuple(ext)))
        for i, box in enumerate(solids):
            if World.is_free(ref_world, box):  # unpatched: no miss counted
                for w in (ref_world, world):
                    w.claim(f"solid{i}", box, "connection")
        for round_id in range(rng.randint(1, 5)):
            n_a, n_y = rng.randint(0, 12), rng.randint(0, 16)
            demand = rng.randint(8, 30)
            want = reference_alap_layer(n_a, n_y, demand, ref_world, channel, round_id)
            got = place_alap_layer(n_a, n_y, demand, world, channel, round_id)
            assert [(b.box_id, b.kind, b.footprint, b.port) for b in got.boxes] == [
                (b.box_id, b.kind, b.footprint, b.port) for b in want.boxes
            ]
            columns += len({b.footprint.hi.x for b in got.boxes})
            placed += len(got.boxes)
    assert placed > 1000 and columns > 150 and len(misses) > 1500


def test_baseline_placements():
    w = World()
    channel = unit_channel()
    asap = place_asap_stack(1, 2, w, stack_width=16, round_id=1)
    assert all(b.footprint.hi.t <= 0 for b in asap.boxes)
    alap = place_alap_layer(0, 2, 20, w, channel, round_id=2)
    assert all(b.footprint.hi.t <= 20 for b in alap.boxes)


def test_placements_never_hit_existing_world():
    rng = random.Random(2)
    w = World()
    channel = box_from_extents(Point3(0, -2, -2), (60, 20, 10))
    for i in range(30):
        lo = Point3(rng.randint(0, 50), rng.randint(-2, 14), rng.randint(-2, 6))
        try:
            w.claim(f"junk{i}", box_from_extents(lo, (2, 2, 2)), "circuit")
        except Exception:
            pass
    layer = place_spiral_layer(5, 5, 4, w, channel)
    for box in layer.boxes:
        hits = {eid for _, eid, b in journal_claims(w.journal) if b.intersects(box.footprint)}
        assert hits == {box.box_id}
