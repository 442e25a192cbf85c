import itertools
import re
import time
from collections import Counter

import pytest

from topoasm import fixtures
from topoasm.engine import SynthesisConfig, synthesize
from topoasm.geom import Box3, DefectPolyline, GeometryError, Point3
from topoasm.icm import parse_icm
from topoasm.pool import RESERVED
from topoasm.sched import SchedulerPolicy
from topoasm.spatial import UnknownEntryError


@pytest.fixture(scope="session")
def toffoli():
    return parse_icm(fixtures.toffoli_text())


@pytest.fixture(scope="session")
def toffoli_unopt():
    return parse_icm(fixtures.toffoli_unopt_text())


def scripted_config(**overrides):
    base = dict(
        policy=SchedulerPolicy(kind="spiral", condition=fixtures.TOFFOLI_CONDITION),
        outcome_script=fixtures.toffoli_outcome_script(),
    )
    base.update(overrides)
    return SynthesisConfig(**base)


@pytest.fixture(scope="session")
def scripted_assembly(toffoli):
    return synthesize(toffoli, scripted_config())


@pytest.fixture(scope="session")
def seed_sweep(toffoli):
    """All three schedulers over ten seeds, shared by the volume and
    non-overlap criteria; records its own wall time."""
    out = {}
    t0 = time.monotonic()
    for kind in ("spiral", "alap", "asap"):
        runs = []
        for seed in range(10):
            cfg = SynthesisConfig(policy=SchedulerPolicy(kind=kind), seed=seed)
            runs.append(synthesize(toffoli, cfg))
        out[kind] = runs
    out["elapsed"] = time.monotonic() - t0
    return out


# -- invariant helpers, built on the library's public attributes ---------------

# a box that holds every cell any test touches
EVERYWHERE = Box3(Point3(-10**6, -10**6, -10**6), Point3(10**6, 10**6, 10**6))


def box_cells(box):
    """An iterator over every cell of ``box`` (lo inclusive, hi exclusive), t outermost."""
    lo, hi = box.lo, box.hi
    return itertools.product(range(lo.t, hi.t), range(lo.x, hi.x), range(lo.y, hi.y))


def contains_cell(box, cell):
    """Whether ``cell`` lies in ``box`` (lo inclusive, hi exclusive)."""
    t, x, y = cell
    (lt, lx, ly), (ht, hx, hy) = box
    return lt <= t < ht and lx <= x < hx and ly <= y < hy


def polyline_from_cells(cells, kind, role):
    """Collapse an adjacent cell path into a polyline of turn points: the
    reference the router tests hold ``route.plan_segment``'s polyline to."""
    if not cells:
        raise GeometryError("empty cell path")
    turns = [cells[0]]
    run_axis = None
    for prev, cur in zip(cells, cells[1:]):
        dt, dx, dy = cur[0] - prev[0], cur[1] - prev[1], cur[2] - prev[2]
        if (dt != 0) + (dx != 0) + (dy != 0) != 1:
            raise GeometryError(f"segment {Point3(*prev)} -> {Point3(*cur)} is not axis-aligned")
        if abs(dt + dx + dy) != 1:
            raise GeometryError("cells are not adjacent")
        axis = 0 if dt else 1 if dx else 2
        if axis == run_axis:
            turns[-1] = cur
        else:
            turns.append(cur)
            run_axis = axis
    return DefectPolyline(kind, role, [Point3(*c) for c in turns])


def polyline_cells(poly):
    """The set of cells a defect polyline covers: every cell between each
    segment's two ends, ends included."""
    out = {poly.vertices[0].as_tuple()}
    for a, b in zip(poly.vertices, poly.vertices[1:]):
        spans = [range(min(p, q), max(p, q) + 1) for p, q in zip(a.as_tuple(), b.as_tuple())]
        out.update(itertools.product(*spans))
    return out


def solid_cells(geometry):
    """Yield (cell, owner) for every cell a defect or box covers; a cell
    repeats only if the geometry is broken."""
    for i, poly in enumerate(geometry.defects):
        for cell in polyline_cells(poly):
            yield cell, f"defect{i}"
    for box in geometry.boxes:
        for cell in box_cells(box.footprint):
            yield cell, box.box_id


LIFECYCLE = ("reserve", "assign", "mark-tobeavailable", "sweep-available")


def pool_lifecycle(journal):
    """The pool's ledger as its journal lines tell it: each connection's
    ``LIFECYCLE`` ops in journal order, the kind its ``reserve`` line
    names, and the ``discard`` lines per kind."""
    ops, kinds, discards = {}, {}, {"A": 0, "Y": 0}
    for ln in journal.lines:
        _, op, *args = ln.split(" ")
        if op == "discard":
            discards[args[0]] += 1
        elif op in LIFECYCLE:
            if op == "reserve":
                kinds[args[0]] = args[1]
            ops.setdefault(args[0], []).append(op)
    return ops, kinds, discards


def assert_pool_journal(pool):
    """Check the pool against its journal, independently of the pool's own
    edge check: each connection's ops are a prefix of ``LIFECYCLE``; per
    kind, ``reserve`` lines minus ``assign`` lines equal the connections
    a scan of all connections finds reserved, and the ``discard`` lines
    equal ``pool.discarded``."""
    ops, kinds, discards = pool_lifecycle(pool.journal)
    assert ops.keys() == pool.connections.keys()
    for cid, seq in ops.items():
        assert tuple(seq) == LIFECYCLE[:len(seq)], (cid, seq)
    for kind in "AY":
        lines = Counter(op for cid, seq in ops.items() if kinds[cid] == kind for op in seq)
        scanned = sum(1 for c in pool.connections.values() if c.state == RESERVED and c.kind == kind)
        assert lines["reserve"] - lines["assign"] == scanned, kind
    assert discards == pool.discarded


# a journal line: a step, an op and non-empty fields, one space apart
JOURNAL_LINE = re.compile(r"^\d+ [a-z-]+( [^ ]+)*$")


def journal_ops(journal, step):
    """The ops logged at ``step``, in order."""
    prefix = f"{step} "
    return [ln.split(" ", 2)[1] for ln in journal.lines if ln.startswith(prefix)]


def journal_claims(journal):
    """``(tag, id, box)`` of each ``claim`` line of the journal, in order;
    the index keeps solids as bits only, so this is their only record."""
    out = []
    for ln in journal.lines:
        _, op, *args = ln.split()
        if op == "claim":
            tag, eid, *c = args
            c = [int(v) for v in c]
            out.append((tag, eid, Box3(Point3(*c[:3]), Point3(*c[3:]))))
    return out


def obstacle_records(registry):
    """``(id, record)`` of each obstacle the registry's journal logs as
    added, in order; the record is ``None`` once the obstacle is removed."""
    out = []
    for ln in registry.journal.lines:
        _, op, *args = ln.split(" ", 3)
        if op == "obstacle-add":
            try:
                out.append((args[0], registry.get(args[0])))
            except UnknownEntryError:
                out.append((args[0], None))
    return out


def enabled_obstacles(registry):
    return [o for _, o in obstacle_records(registry) if o is not None and o.enabled]
