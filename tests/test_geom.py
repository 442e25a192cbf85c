import hashlib
import random

import pytest

from topoasm.geom import (
    Box3,
    DefectPolyline,
    GeometryBuilder,
    GeometryError,
    GeometrySet,
    Point3,
    box_from_extents,
    cell_box,
    global_bounding_box,
    merge_boxes,
    pin_cell,
    plumbing_volume,
    template_rows,
    wire_row,
)
from topoasm.icm import ICMCircuit, ICMOp, parse_icm
from topoasm.route import World

from conftest import box_cells, journal_claims, polyline_cells, polyline_from_cells, solid_cells


def test_box_requires_positive_extent():
    with pytest.raises(GeometryError):
        Box3(Point3(0, 0, 0), Point3(0, 1, 1))


def test_touching_boxes_do_not_intersect():
    a = box_from_extents(Point3(0, 0, 0), (2, 2, 2))
    b = box_from_extents(Point3(2, 0, 0), (2, 2, 2))
    assert not a.intersects(b)
    assert a.intersects(box_from_extents(Point3(1, 1, 1), (1, 1, 1)))


def test_plumbing_volume_products():
    assert plumbing_volume(box_from_extents(Point3(0, 0, 0), (2, 3, 4))) == 24
    assert plumbing_volume(box_from_extents(Point3(5, -2, 7), (1, 1, 1))) == 1
    assert plumbing_volume(box_from_extents(Point3(0, 0, 0), (110, 78, 66))) == 566280


def test_volume_invariant_under_translation():
    b = box_from_extents(Point3(1, 2, 3), (4, 5, 6))
    moved = Box3(b.lo.shifted(-17, 9, 100), b.hi.shifted(-17, 9, 100))
    assert plumbing_volume(b) == plumbing_volume(moved)


def _bbox(poly):
    return global_bounding_box(GeometrySet([poly]))


def test_unit_segment_bounding_box():
    poly = DefectPolyline("primal", "circuit", [Point3(0, 0, 0)])
    assert polyline_cells(poly) == {(0, 0, 0)}
    assert _bbox(poly).extents == (1, 1, 1)


def test_polyline_rejects_diagonals_and_zero_segments():
    with pytest.raises(GeometryError):
        DefectPolyline("primal", "circuit", [Point3(0, 0, 0), Point3(1, 1, 0)])
    with pytest.raises(GeometryError):
        DefectPolyline("primal", "circuit", [Point3(0, 0, 0), Point3(0, 0, 0)])


def test_extend_last_moves_along_the_last_axis_only():
    poly = DefectPolyline("primal", "circuit", [Point3(0, 0, 0)])
    poly.extend_last(Point3(5, 0, 0))
    poly.extend_last(Point3(9, 0, 0))
    assert poly.vertices == [Point3(0, 0, 0), Point3(9, 0, 0)]
    for off_axis in (Point3(0, 3, 0), Point3(0, 0, 2), Point3(9, 3, 0)):
        with pytest.raises(GeometryError):
            poly.extend_last(off_axis)
    assert poly.vertices == [Point3(0, 0, 0), Point3(9, 0, 0)]


def test_polyline_cells_cover_turns_once():
    poly = polyline_from_cells([(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 2, 0)], "primal", "circuit")
    assert polyline_cells(poly) == {(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 2, 0)}
    claimed = []
    for box in poly.claim_boxes():
        claimed.extend(box_cells(box))
    assert sorted(claimed) == sorted(polyline_cells(poly))  # disjoint cover, no dups


def test_polyline_from_cells_roundtrip_random_walks():
    rng = random.Random(7)
    for _ in range(50):
        cell = (0, 0, 0)
        cells = [cell]
        seen = {cell}
        for _ in range(30):
            axis = rng.randrange(3)
            sign = rng.choice((-1, 1))
            nxt = tuple(c + (sign if i == axis else 0) for i, c in enumerate(cell))
            if nxt in seen:
                continue
            cell = nxt
            cells.append(cell)
            seen.add(cell)
        poly = polyline_from_cells(cells, "dual", "connection_c")
        assert polyline_cells(poly) == set(cells)
        # Box i covers exactly segment i's cells, minus the turn cell it
        # shares with segment i-1; a one-cell walk gets one box.
        ends = [cells.index(v.as_tuple()) for v in poly.vertices]
        want = [cells[:1]] if len(ends) == 1 else [
            cells[a + (1 if i else 0):b + 1] for i, (a, b) in enumerate(zip(ends, ends[1:]))
        ]
        assert [sorted(box_cells(box)) for box in poly.claim_boxes()] == [sorted(w) for w in want]


@pytest.mark.parametrize("cells, message", [
    ([], "empty cell path"),
    ([(0, 0, 0), (1, 0, 0), (2, 1, 0)],
     "segment Point3(t=1, x=0, y=0) -> Point3(t=2, x=1, y=0) is not axis-aligned"),
    ([(0, 0, 0), (0, 1, 0), (0, 1, 0)],
     "segment Point3(t=0, x=1, y=0) -> Point3(t=0, x=1, y=0) is not axis-aligned"),
    ([(0, 0, 0), (0, 0, 1), (0, 0, 3)], "cells are not adjacent"),
], ids=["empty", "diagonal", "repeated", "jump-2"])
def test_polyline_from_cells_rejects_broken_paths(cells, message):
    with pytest.raises(GeometryError) as info:
        polyline_from_cells(cells, "primal", "connection_c")
    assert str(info.value) == message


def test_global_bounding_box_matches_brute_force():
    rng = random.Random(3)
    g = GeometrySet()
    corners = []
    for _ in range(40):
        lo = Point3(rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(-20, 20))
        ext = (rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5))
        box = box_from_extents(lo, ext)
        if rng.random() < 0.5:
            from topoasm.geom import PlacedBox

            g.boxes.append(PlacedBox(f"b{len(g.boxes)}", "A", box, Point3(box.hi.t, lo.x, lo.y)))
            corners.append(box)
        else:
            a = lo
            b = Point3(lo.t + ext[0], lo.x, lo.y)
            g.defects.append(DefectPolyline("primal", "circuit", [a, b]))
            corners.append(merge_boxes(cell_box(a.as_tuple()), cell_box(b.as_tuple())))
    got = global_bounding_box(g)
    want = corners[0]
    for c in corners[1:]:
        want = merge_boxes(want, c)
    assert got == want


def _cell_bounding_box(g):
    """The bounding box of every cell the polylines claim and the boxes cover,
    found cell by cell."""
    boxes = [b for poly in g.defects for b in poly.claim_boxes()]
    boxes += [placed.footprint for placed in g.boxes]
    axes = list(zip(*(c for b in boxes for c in box_cells(b))))
    return Box3(Point3(*map(min, axes)), Point3(*(max(a) + 1 for a in axes)))


def _random_polyline(rng):
    vertices = [Point3(rng.randint(-30, 30), rng.randint(-30, 30), rng.randint(-30, 30))]
    axis = None
    for _ in range(rng.randint(0, 4)):
        axis = rng.choice([a for a in range(3) if a != axis])
        step = [0, 0, 0]
        step[axis] = rng.choice([-1, 1]) * rng.randint(1, 6)
        vertices.append(vertices[-1].shifted(*step))
    return DefectPolyline("primal", "circuit", vertices)


@pytest.mark.parametrize("seed", range(8))
def test_global_bounding_box_equals_cell_brute_force(seed):
    from topoasm.geom import PlacedBox

    rng = random.Random(seed)
    g = GeometrySet()
    for i in range(rng.randint(1, 12)):
        if rng.random() < 0.5:
            lo = Point3(rng.randint(-30, 30), rng.randint(-30, 30), rng.randint(-30, 30))
            box = box_from_extents(lo, (rng.randint(1, 6), rng.randint(1, 4), rng.randint(1, 4)))
            g.boxes.append(PlacedBox(f"b{i}", "A", box, Point3(box.hi.t, lo.x, lo.y)))
        else:
            g.defects.append(_random_polyline(rng))
    assert global_bounding_box(g) == _cell_bounding_box(g)


def test_global_bounding_box_of_a_chain_assembly(toffoli):
    from topoasm.engine import SynthesisConfig, synthesize

    asm = synthesize(_sequential_chain(toffoli, 2), SynthesisConfig())
    assert asm.geometry.boxes and len(asm.geometry.defects) > 100
    assert global_bounding_box(asm.geometry) == _cell_bounding_box(asm.geometry)


# -- the value types --------------------------------------------------------------


def test_points_and_boxes_are_immutable():
    p = Point3(1, 2, 3)
    box = Box3(Point3(0, 0, 0), Point3(1, 2, 3))
    with pytest.raises(AttributeError):
        p.t = 5
    with pytest.raises(AttributeError):
        box.lo = p
    with pytest.raises(AttributeError):
        box.extra = 1
    with pytest.raises(TypeError):
        box[0] = p
    assert p == (1, 2, 3) and box == (Point3(0, 0, 0), p)


def test_point_equals_its_cell_tuple_as_a_key():
    cell = (4, -2, 7)
    assert Point3(*cell) == cell and hash(Point3(*cell)) == hash(cell)
    assert {cell: "a"}[Point3(*cell)] == "a"
    assert Point3(*cell) in {cell} and cell in {Point3(*cell)}
    assert len({cell, Point3(*cell)}) == 1


def test_sorted_points_and_boxes_follow_tuple_order():
    rng = random.Random(5)
    cells = [(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(200)]
    assert [p.as_tuple() for p in sorted(Point3(*c) for c in cells)] == sorted(cells)
    pairs = [(a, tuple(x + 1 + rng.randint(0, 2) for x in a)) for a in cells]
    boxes = [Box3(Point3(*lo), Point3(*hi)) for lo, hi in pairs]
    assert [(b.lo.as_tuple(), b.hi.as_tuple()) for b in sorted(boxes)] == sorted(pairs)


def test_value_type_reprs():
    p = Point3(1, -2, 3)
    box = Box3(Point3(0, 0, 0), Point3(1, 2, 3))
    assert repr(p) == str(p) == "Point3(t=1, x=-2, y=3)"
    assert repr(box) == str(box) == "Box3(lo=Point3(t=0, x=0, y=0), hi=Point3(t=1, x=2, y=3))"
    assert f"around {box}" == "around Box3(lo=Point3(t=0, x=0, y=0), hi=Point3(t=1, x=2, y=3))"


def test_degenerate_box_message():
    with pytest.raises(GeometryError) as info:
        Box3(Point3(0, 0, 0), Point3(0, 1, 1))
    assert str(info.value) == "degenerate box Point3(t=0, x=0, y=0) .. Point3(t=0, x=1, y=1)"


def test_box_survives_copy_and_pickle():
    import copy
    import pickle

    box = Box3(Point3(0, 0, 0), Point3(1, 2, 3))
    for clone in (copy.copy(box), copy.deepcopy(box), pickle.loads(pickle.dumps(box))):
        assert clone == box and type(clone) is Box3 and repr(clone) == repr(box)


def test_global_bounding_box_empty_set_errors():
    with pytest.raises(GeometryError):
        global_bounding_box(GeometrySet())


def _emit(circuit, horizon):
    g = GeometrySet()
    builder = GeometryBuilder(circuit, g, World().claim)
    builder.emit_until(horizon)
    return g, builder


def test_emit_idle_wire_extent():
    circuit = ICMCircuit(1, [])
    g, _ = _emit(circuit, 5)
    assert len(g.defects) == 1
    assert _bbox(g.defects[0]).extents == (5, 1, 1)
    assert g.pins == []


def test_emit_one_shot_equals_incremental(toffoli):
    g, _ = _emit(toffoli, toffoli.last_timestep + 1)
    incremental = GeometrySet()
    b = GeometryBuilder(toffoli, incremental, World().claim)
    for h in range(0, toffoli.last_timestep + 2, 7):
        b.emit_until(h)
    b.emit_until(toffoli.last_timestep + 1)
    assert {c for d in g.defects for c in polyline_cells(d)} == {
        c for d in incremental.defects for c in polyline_cells(d)
    }
    assert g.pins == incremental.pins


def test_emit_braid_per_cnot_spans_both_rows():
    ops = [
        ICMOp("init", 0, (0,), "0"),
        ICMOp("init", 0, (1,), "0"),
        ICMOp("cnot", 3, (0, 1)),
    ]
    circuit = ICMCircuit(2, ops)
    g, _ = _emit(circuit, 4)
    braids = [d for d in g.defects if d.kind == "dual"]
    assert len(braids) == 1
    bb = _bbox(braids[0])
    assert bb.lo.x == 0 and bb.hi.x == 3  # spans rows x=0 and x=2
    assert bb.extents[0] == 2


def test_emit_colliding_templates_flagged():
    # the second template's row covers both turn ends of the first
    ops = [
        ICMOp("init", 0, (0,), "0"),
        ICMOp("init", 0, (1,), "0"),
        ICMOp("cnot", 3, (0, 1)),
        ICMOp("cnot", 4, (0, 1)),
    ]
    circuit = ICMCircuit(2, ops)
    from topoasm.geom import TemplateCollisionError

    builder = GeometryBuilder(circuit, GeometrySet(), World().claim)
    with pytest.raises(TemplateCollisionError):
        builder.emit_until(10)


def test_template_collision_names_its_owner_through_the_journal():
    """A CNOT template that meets an earlier solid names it through the
    journal's ``claim`` lines (the wire corridors claimed beside it are
    left out).  ``_emit_braid`` re-tags every exception as a template
    fault, so only the text shows that the lookup worked."""
    from topoasm.geom import TemplateCollisionError

    circuit = ICMCircuit(2, [ICMOp("init", 0, (0,), "0"), ICMOp("init", 0, (1,), "0"),
                             ICMOp("cnot", 3, (0, 1))])
    xl, xr = template_rows(circuit.cnots()[0])
    world = World()
    world.claim("blocker", cell_box(Point3(3, xl, 1)), "circuit")
    builder = GeometryBuilder(circuit, GeometrySet(), world.claim)
    with pytest.raises(TemplateCollisionError, match=rf"^CNOT template at t=3 rows \[{xl},{xr}\] "
                       r"collides: claim braid\.t3#\d+ overlaps \['blocker'\]$"):
        builder.emit_until(10)
    # the blocker and both wire corridors, which the braid misses
    assert [eid for _, eid, _ in journal_claims(world.journal)] == [
        "blocker", "wire0.0#1", "wire1.1#2"]


def test_emit_is_idempotent_and_monotone():
    circuit = parse_icm("@0 init 0 A\n@0 init 1 0\n@2 cnot 0 1\n@5 measure 0 X\n@9 measure 1 Z\n")
    g1 = GeometrySet()
    b1 = GeometryBuilder(circuit, g1, World().claim)
    b1.emit_until(4)
    cells_4 = {c for d in g1.defects for c in polyline_cells(d)}
    b1.emit_until(4)
    assert {c for d in g1.defects for c in polyline_cells(d)} == cells_4
    b1.emit_until(10)
    cells_10 = {c for d in g1.defects for c in polyline_cells(d)}
    assert cells_4 <= cells_10

    g2 = GeometrySet()
    b2 = GeometryBuilder(circuit, g2, World().claim)
    b2.emit_until(10)
    assert {c for d in g2.defects for c in polyline_cells(d)} == cells_10
    with pytest.raises(GeometryError):
        b2.emit_until(3)


def test_emit_pins_appear_with_horizon(toffoli):
    g = GeometrySet()
    builder = GeometryBuilder(toffoli, g, World().claim)
    first_t = toffoli.magic_inputs[0].timestep
    builder.emit_until(first_t)  # cells strictly before the first inputs
    assert g.pins == []
    builder.emit_until(first_t + 1)
    assert len(g.pins) == 3  # the three step-1 inputs
    pinned = {key for key, _ in g.pins}
    assert all(m.key in pinned for m in toffoli.magic_inputs[:3])


def test_emit_magic_pin_cell_left_unclaimed(toffoli):
    g = GeometrySet()
    builder = GeometryBuilder(toffoli, g, World().claim)
    builder.emit_until(toffoli.last_timestep + 1)
    claimed = {c for d in g.defects for c in polyline_cells(d)}
    for key, pin in g.pins:
        assert pin.as_tuple() not in claimed


def test_emit_no_cell_claimed_twice(toffoli):
    from collections import Counter

    g = GeometrySet()
    builder = GeometryBuilder(toffoli, g, World().claim)
    builder.emit_until(toffoli.last_timestep + 1)
    counts = Counter()
    for cell, _ in solid_cells(g):
        counts[cell] += 1
    dup = [c for c, n in counts.items() if n > 1]
    assert dup == []


def _sequential_chain(circuit, copies):
    """``copies`` copies of ``circuit`` in sequence: each copy's timesteps
    shift by the whole span and its wires move to a fresh block.  The last
    copy drops each wire's final measurement, so the chain has outputs."""
    span = circuit.last_timestep + 1
    n = circuit.wire_count
    last_op = {w: op for op in circuit.ops for w in op.wires}
    ops = [
        ICMOp(op.kind, op.timestep + k * span, tuple(w + k * n for w in op.wires), op.basis)
        for k in range(copies)
        for op in circuit.ops
        if k < copies - 1 or op.kind != "measure" or last_op[op.wire] is not op
    ]
    return ICMCircuit(n * copies, ops)


def _corridor_cells(circuit, horizon):
    """Wire-corridor cells every lifetime owns below ``horizon``."""
    out = set()
    for lt in circuit.lifetimes():
        start = lt.start + 1 if lt.magic else lt.start
        last = lt.end - 1 if lt.end is not None else horizon - 1
        row = wire_row(lt.wire)
        out.update((t, row, 0) for t in range(start, min(last, horizon - 1) + 1))
    return out


def _emission_digest(claims, geometry):
    """sha256 of the claim sequence (id, box, tag) and every defect's vertices."""
    lines = [f"{eid} {box.lo.as_tuple()} {box.hi.as_tuple()} {tag}" for eid, box, tag in claims]
    lines += [f"{d.kind} {[v.as_tuple() for v in d.vertices]}" for d in geometry.defects]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize(
    "recycle, digests",
    [
        (
            False,
            (
                "7c30eccda4465bc5602ffd6bd53ee3c02839daa569ee6edaf4ce41ae10a91553",
                "81682cd82c9ae47c8ce9b4c8ada5476e577c4f11433466ada9672b0a35e35883",
                "00ca892219861429d84dd104d4b249cbc7b5dc28d3dacf8644c2fd63ea5948e5",
                "37d354825acfe7a84ed7376fdd5a7a91a6958e2935f2fb3f513c7d696c5146e6",
                "b8ce1ef396a14028e3a6cf5118a9db78b85cdfd85c221f3fabec42836f20dde7",
                "efe90345a7fd6e15e339c11b20bb42d50ede297b67515c2ee692200c08d0c958",
            ),
        ),
        (
            True,
            (
                "d5a7f20f2915b38ee4bdf6d5625474255a6ffc53236aa7e2f9a04c03cf4524a5",
                "2ce0b3d119c529252585e31abc61cc4b17c8986cd29717bff9e46e2cbc8e5db7",
                "3c14644f71796bf92064cd8059ceb78fdadc4cb0ebff2217f85ae262c74a69fe",
                "3f8479147868b08327599ad97f3e32719764103915fe1348aeff76e5a2791e0d",
                "2467bac5198bf0c22406d2e53df7b62cff8fead1ea87ce37782c940e29d3b6ec",
                "f5f1b0c270e0d9d519470e44f4f093a5c4b57df35075a7e4232fd2cebf6875f4",
            ),
        ),
    ],
    ids=["False", "True"],
)
def test_emit_random_monotone_horizons_on_a_chain(toffoli, recycle, digests):
    """Drive the incremental emitter through seeded random horizons that
    stop, repeat and run past the circuit, and compare every step with
    what the lifetimes, CNOTs and inputs below the horizon call for.  The
    chain has open lifetimes, which no CLI run has, so the digests pin how
    open corridors are chunked and named across steps."""
    from topoasm.icm import recycle_wires

    chain = _sequential_chain(toffoli, 3)
    if recycle:
        chain = recycle_wires(chain)
    assert any(lt.end is None for lt in chain.lifetimes())
    end = chain.last_timestep + 1
    once = GeometrySet()
    once_claims = []
    GeometryBuilder(chain, once, lambda *a: once_claims.append(a)).emit_until(end + 6)
    magic = sorted(chain.magic_inputs, key=lambda m: (m.timestep, m.wire))
    got = []
    for seed in range(6):
        rng = random.Random(seed)
        g = GeometrySet()
        claims = []
        builder = GeometryBuilder(chain, g, lambda *a: claims.append(a))
        h = rng.randint(0, 3)
        while True:
            builder.emit_until(h)
            cells = [c for _, box, _ in claims for c in box_cells(box)]
            assert len(cells) == len(set(cells)), (seed, h)
            assert {c for c in cells if c[2] == 0} == _corridor_cells(chain, h), (seed, h)
            braids = [d for d in g.defects if d.kind == "dual"]
            below = [op for op in chain.cnots() if op.timestep < h]
            assert [(d.vertices[0].t, _bbox(d).lo.x, _bbox(d).hi.x - 1)
                    for d in braids] == [(op.timestep, *template_rows(op)) for op in below], (seed, h)
            want_pins = [(m.key, pin_cell(m)) for m in magic if m.timestep < h]
            assert g.pins == want_pins, (seed, h)
            if h >= end + 6:
                break
            h = min(end + 6, h + rng.choice((0, 0, 1, 1, 2, 5, 11)))
        assert {c for _, box, _ in claims for c in box_cells(box)} == {
            c for _, box, _ in once_claims for c in box_cells(box)
        }
        assert {c for d in g.defects for c in polyline_cells(d)} == {c for d in once.defects for c in polyline_cells(d)}
        assert g.pins == once.pins
        got.append(_emission_digest(claims, g))
    assert tuple(got) == digests
