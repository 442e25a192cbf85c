import random

import pytest

from topoasm.geom import Point3
from topoasm.pool import (
    ASSIGNED,
    AVAILABLE,
    RESERVED,
    TOBEAVAILABLE,
    ConnectionPool,
    PoolConfig,
    PoolError,
)

LEGAL = {
    (AVAILABLE, RESERVED),
    (RESERVED, ASSIGNED),
    (ASSIGNED, TOBEAVAILABLE),
    (TOBEAVAILABLE, AVAILABLE),
}


def mk_pool(cap=10):
    return ConnectionPool(PoolConfig(cap_per_type=cap))


def successes(n, kind, t0=10):
    return [(f"box{kind}{i}", kind, Point3(t0, 4 + i, -6)) for i in range(n)]


def test_reserve_single_success_lowest_rail():
    pool = mk_pool()
    ids = pool.reserve_connections(successes(1, "A"))
    assert len(ids) == 1
    conn = pool.connections[ids[0]]
    assert conn.state == RESERVED and conn.kind == "A" and conn.rail == 0
    assert pool.counts() == (1, 0)


def test_cap_discards_surplus():
    pool = mk_pool(cap=10)
    pool.reserve_connections(successes(8, "Y"))
    ids = pool.reserve_connections(successes(12, "Y", t0=30))
    assert len(ids) == 2
    assert pool.reserved_count("Y") == 10
    assert pool.discarded["Y"] == 10
    assert pool.conservation_holds()


def test_scripted_reserve_counts():
    pool = mk_pool()
    pool.reserve_connections(successes(6, "A"))
    pool.reserve_connections(successes(6, "Y"))
    assert pool.counts() == (6, 6)


def test_assign_lowest_rail_and_insufficient():
    pool = mk_pool()
    pool.reserve_connections(successes(1, "A"))
    cid = pool.assign_to_input("w0@t4", "A")
    assert cid is not None
    assert pool.connections[cid].rail == 0
    assert pool.reserved_count("A") == 0
    assert pool.assign_to_input("w1@t5", "Y") is None


def test_one_reserved_two_inputs_second_insufficient():
    pool = mk_pool()
    pool.reserve_connections(successes(1, "Y"))
    first = pool.assign_to_input("w0@t4", "Y")
    second = pool.assign_to_input("w1@t4", "Y")
    assert first is not None and second is None


def test_extend_reserved_to_now():
    pool = mk_pool()
    (cid,) = pool.reserve_connections([("b", "Y", Point3(2, 5, -6))])
    conn = pool.connections[cid]
    assert conn.anchor_t == 4  # port.t + kb_lead
    targets = pool.extension_targets(9)
    assert len(targets) == 1
    _, first, last = targets[0]
    assert (first, last) == (5, 8)  # occupancy covers [4, 9) afterwards
    pool.apply_extension(conn, last)
    assert conn.extended_to == 8
    assert pool.extension_targets(9) == []


def test_tobeavailable_holds_rail_until_past():
    pool = mk_pool()
    (cid,) = pool.reserve_connections([("b", "Y", Point3(2, 5, -6))])
    conn = pool.connections[cid]
    pool.apply_extension(conn, 12)
    pool.assign_to_input("w0@t9", "Y")
    pool.mark_tobeavailable([cid])
    assert pool.sweep(10) == []  # occupancy crosses now
    assert conn.state == TOBEAVAILABLE
    assert pool.sweep(13) == [cid]
    assert conn.state == AVAILABLE and conn.kind is None and conn.rail is None


def test_extend_and_sweep_composite():
    pool = mk_pool()
    a, b = pool.reserve_connections(
        [("b1", "A", Point3(2, 5, -6)), ("b2", "Y", Point3(2, 9, -6))]
    )
    pool.assign_to_input("w0@t5", "A")
    pool.mark_tobeavailable([a])
    ext = pool.extension_targets(9)
    for conn, _, last in ext:
        pool.apply_extension(conn, last)
    pool.sweep(9)
    # the delivered connection is frozen, the reserved one got stretched
    assert [e[0].id for e in ext] == [b]
    assert (a, ASSIGNED, TOBEAVAILABLE) in pool.transitions
    # its occupancy ended before now, so the same sweep already freed it
    assert pool.connections[a].state == AVAILABLE
    assert pool.connections[b].extended_to == 8


def test_illegal_transition_rejected():
    pool = mk_pool()
    (cid,) = pool.reserve_connections(successes(1, "A"))
    with pytest.raises(PoolError):
        pool.mark_tobeavailable([cid])  # reserved -> tobeavailable is not an edge


def test_rail_double_booking_rejected():
    pool = mk_pool()
    (cid,) = pool.reserve_connections([("b", "A", Point3(2, 5, -6))])
    rail = pool.rails[pool.connections[cid].rail]
    with pytest.raises(PoolError):
        rail.add_interval(4, 4)


def random_pool_script(seed, steps=60):
    """Drive a pool through a random but legal op sequence; return it with
    the rails and transition log intact."""
    rng = random.Random(seed)
    pool = mk_pool(cap=rng.randint(2, 6))
    now = 0
    box = 0
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.4:
            n = rng.randint(1, 5)
            kind = rng.choice("AY")
            batch = []
            for _ in range(n):
                batch.append((f"b{box}", kind, Point3(now + rng.randint(2, 8), rng.randint(0, 30), -6)))
                box += 1
            pool.reserve_connections(batch)
        elif roll < 0.7:
            kind = rng.choice("AY")
            cid = pool.assign_to_input(f"w{box}@t{now}", kind)
            if cid is not None:
                pool.mark_tobeavailable([cid])
        else:
            now += rng.randint(1, 6)
            for conn, _, last in pool.extension_targets(now):
                pool.apply_extension(conn, last)
            pool.sweep(now)
        assert pool.conservation_holds()
    return pool


@pytest.mark.parametrize("seed", range(25))
def test_random_scripts_state_machine_and_rails(seed):
    pool = random_pool_script(seed)
    for cid, a, b in pool.transitions:
        assert (a, b) in LEGAL
    for rail in pool.rails:
        spans = sorted(rail.occupancy)
        for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
            assert b1 < a2  # intervals never overlap
    assert pool.conservation_holds()
    assert pool.reserved_count("A") <= pool.config.cap_per_type
    assert pool.reserved_count("Y") <= pool.config.cap_per_type
