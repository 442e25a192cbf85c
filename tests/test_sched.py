import random

import pytest

from topoasm.geom import LayoutConfig, Point3, box_from_extents
from topoasm.route import World
from topoasm.sched import (
    PlacementError,
    SchedulerPolicy,
    place_alap_layer,
    place_asap_stack,
    place_spiral_layer,
    required_round_size,
)


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
    layer = place_spiral_layer(0, 1, 0, w, LayoutConfig(), seed)
    (box,) = layer.boxes
    assert not box.footprint.intersects(seed)
    # within the first ring
    assert abs(box.footprint.lo.x) <= 12 and abs(box.footprint.lo.y) <= 12


def test_spiral_layer_collision_free():
    w = World()
    channel = unit_channel()
    w.claim("seed", channel, "circuit")
    layer = place_spiral_layer(4, 4, 0, w, LayoutConfig(), channel)
    assert len(layer.boxes) == 8
    assert no_pairwise_overlap(layer.boxes)
    assert all(b.footprint.lo.t == 0 for b in layer.boxes)


def test_spiral_determinism():
    def run():
        w = World()
        channel = unit_channel()
        w.claim("seed", channel, "circuit")
        layer = place_spiral_layer(3, 5, 7, w, LayoutConfig(), channel)
        return [(b.box_id, b.footprint.lo.as_tuple()) for b in layer.boxes]

    assert run() == run()


def test_spiral_large_round_balances_around_seed():
    w = World()
    channel = unit_channel()
    w.claim("seed", channel, "circuit")
    layout = LayoutConfig()
    layer = place_spiral_layer(0, 64, 0, w, layout, channel)
    assert no_pairwise_overlap(layer.boxes)
    cx = sum(b.footprint.lo.x + b.footprint.extents[1] / 2 for b in layer.boxes) / 64
    cy = sum(b.footprint.lo.y + b.footprint.extents[2] / 2 for b in layer.boxes) / 64
    seed_cx, seed_cy = 0.5, 0.5
    pitch = max(layout.a_box_extents[1:]) + layout.spiral_gap
    assert abs(cx - seed_cx) <= pitch
    assert abs(cy - seed_cy) <= pitch


def test_spiral_exhaustion_raises():
    w = World()
    channel = unit_channel()
    layout = LayoutConfig(max_rings=1)
    with pytest.raises(PlacementError):
        place_spiral_layer(64, 64, 0, w, layout, channel)


def test_spiral_schedule_lists_box_corners():
    w = World()
    channel = unit_channel()
    layer = place_spiral_layer(1, 1, 3, w, LayoutConfig(), channel)
    assert layer.schedule == [b.footprint.lo for b in layer.boxes]


def test_asap_stack_before_circuit_start():
    w = World()
    layer = place_asap_stack(6, 10, w, LayoutConfig(), stack_width=20)
    assert len(layer.boxes) == 16
    assert no_pairwise_overlap(layer.boxes)
    assert all(b.footprint.hi.t <= 0 for b in layer.boxes)


def test_alap_layer_ends_before_demand():
    w = World()
    channel = unit_channel()
    for demand_t, rid in ((10, 1), (13, 2)):
        layer = place_alap_layer(2, 3, demand_t, w, LayoutConfig(), channel, round_id=rid)
        assert all(b.footprint.hi.t <= demand_t for b in layer.boxes)
    everything = [e for e in w.index.entries() if e.tag == "box"]
    for i, a in enumerate(everything):
        for b in everything[i + 1:]:
            assert not a.box.intersects(b.box)


def test_baseline_placements():
    w = World()
    channel = unit_channel()
    asap = place_asap_stack(1, 2, w, LayoutConfig(), stack_width=16, round_id=1)
    assert all(b.footprint.hi.t <= 0 for b in asap.boxes)
    alap = place_alap_layer(0, 2, 20, w, LayoutConfig(), channel, round_id=2)
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
    layer = place_spiral_layer(5, 5, 4, w, LayoutConfig(), channel)
    for box in layer.boxes:
        hits = w.solid_hits(box.footprint)
        assert hits == {box.box_id}
