import random

import pytest

from topoasm.geom import Point3
from topoasm.pool import (
    AVAILABLE,
    KB_LEAD,
    RESERVED,
    TOBEAVAILABLE,
    ConnectionPool,
    PoolError,
)
from topoasm.route import Journal

from conftest import LIFECYCLE, assert_pool_journal, pool_lifecycle


def mk_pool(cap=10):
    return ConnectionPool(cap, Journal())


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
    assert_pool_journal(pool)


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
    assert conn.anchor_t == 4  # port.t + KB_LEAD
    targets = pool.extension_targets(9)
    assert len(targets) == 1
    _, first, last = targets[0]
    assert (first, last) == (5, 8)  # occupancy covers [4, 9) afterwards
    pool.apply_extension(conn, last)
    assert conn.extended_to == 8
    assert pool.extension_targets(9) == []
    with pytest.raises(PoolError):
        pool.apply_extension(conn, 7)  # a stretch only grows


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
    # a swept connection keeps its record; its rail is granted again to a
    # new connection once the new anchor lies past its stretch
    assert conn.state == AVAILABLE and conn.kind == "Y" and conn.rail == 0
    assert (conn.source_box, conn.anchor_t, conn.extended_to) == ("b", 4, 12)
    (nxt,) = pool.reserve_connections([("b2", "A", Point3(12, 5, -6))])  # anchor 14
    assert nxt != cid and pool.connections[nxt].rail == 0
    assert [h.id for h in pool.rails[0]] == [cid, nxt]
    assert_pool_journal(pool)


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
    # its occupancy ended before now, so the same sweep already freed it
    assert pool_lifecycle(pool.journal)[0][a] == list(LIFECYCLE)
    assert pool.connections[a].state == AVAILABLE
    assert pool.connections[b].extended_to == 8


def test_illegal_transition_rejected():
    pool = mk_pool()
    (cid,) = pool.reserve_connections(successes(1, "A"))
    with pytest.raises(PoolError):
        pool.mark_tobeavailable([cid])  # reserved -> tobeavailable is not an edge


def test_rail_reuse_waits_for_sweep_and_past_stretch():
    pool = mk_pool()
    (a,) = pool.reserve_connections([("b0", "A", Point3(2, 5, -6))])  # anchor 4
    pool.apply_extension(pool.connections[a], 12)
    pool.assign_to_input("w0@t9", "A")
    pool.mark_tobeavailable([a])
    assert pool.sweep(12) == []  # the delivered connection holds rail 0
    assert pool.sweep(13) == [a]
    # an anchor at or before the swept stretch's last cell opens a new rail,
    # a later one reuses rail 0
    (c,) = pool.reserve_connections([("b1", "Y", Point3(10, 5, -6))])  # anchor 12
    (d,) = pool.reserve_connections([("b2", "Y", Point3(11, 5, -6))])  # anchor 13
    assert (pool.connections[c].rail, pool.connections[d].rail) == (1, 0)
    # a tobeavailable holder whose stretch has ended keeps its rail until swept
    assert pool.assign_to_input("w1@t13", "Y") == d
    pool.mark_tobeavailable([d])
    (e,) = pool.reserve_connections([("b3", "Y", Point3(18, 5, -6))])  # anchor 20
    assert pool.connections[e].rail == 2
    assert [[h.id for h in holders] for holders in pool.rails] == [[a, d], [c], [e]]


def expected_rail(pool, granted, anchor_t):
    """The grant rule over all recorded holders: the lowest rail whose
    holders are all available and ended before ``anchor_t``, else a new one."""
    rails = {}
    for cid, rail in granted.items():
        rails.setdefault(rail, []).append(pool.connections[cid])
    for rail in range(len(rails)):
        if all(c.state == AVAILABLE and c.extended_to < anchor_t for c in rails[rail]):
            return rail
    return len(rails)


def assert_reserved_counts(pool):
    """``reserved_count`` keeps its count as the pool moves; it equals a
    brute-force count of the rails' last holders, and of all connections,
    reserved with each kind."""
    for kind in "AY":
        last = sum(1 for h in pool.rails if h[-1].state == RESERVED and h[-1].kind == kind)
        every = sum(1 for c in pool.connections.values() if c.state == RESERVED and c.kind == kind)
        assert pool.reserved_count(kind) == last == every


def random_pool_script(seed, steps=60):
    """Drive a pool through a random but legal op sequence; return it with
    the rails and journal intact.  Every reservation's rail is checked
    against ``expected_rail``, the reserved counts against
    ``assert_reserved_counts`` after every operation, and the journal
    against ``assert_pool_journal`` after every step."""
    rng = random.Random(seed)
    pool = mk_pool(cap=rng.randint(2, 6))
    granted = {}  # connection id -> rail, as the grant rule gives it
    now = 0
    box = 0
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.4:
            n = rng.randint(1, 5)
            kind = rng.choice("AY")
            batch = []
            for _ in range(n):
                batch.append((f"b{box}", kind, Point3(now + rng.randint(-4, 8), rng.randint(0, 30), -6)))
                box += 1
            free = pool.cap_per_type - pool.reserved_count(kind)
            ids = pool.reserve_connections(batch)
            assert_reserved_counts(pool)
            assert len(ids) == min(n, free)
            # earlier members of the batch are reserved, so they count as live
            for cid, (box_id, _, port) in zip(ids, batch):
                conn = pool.connections[cid]
                assert conn.source_box == box_id
                rail = expected_rail(pool, granted, port.t + KB_LEAD)
                assert conn.rail == rail
                granted[cid] = rail
        elif roll < 0.7:
            kind = rng.choice("AY")
            cid = pool.assign_to_input(f"w{box}@t{now}", kind)
            assert_reserved_counts(pool)
            if cid is not None:
                pool.mark_tobeavailable([cid])
        else:
            now += rng.randint(1, 6)
            for conn, _, last in pool.extension_targets(now):
                pool.apply_extension(conn, last)
                assert_reserved_counts(pool)
            pool.sweep(now)
        assert_reserved_counts(pool)
        assert_pool_journal(pool)
    return pool


@pytest.mark.parametrize("seed", range(25))
def test_random_scripts_state_machine_and_rails(seed):
    pool = random_pool_script(seed)
    for holders in pool.rails:
        spans = sorted((c.anchor_t, c.extended_to) for c in holders)
        for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
            assert b1 < a2  # intervals never overlap
    assert_pool_journal(pool)
    assert pool.reserved_count("A") <= pool.cap_per_type
    assert pool.reserved_count("Y") <= pool.cap_per_type
