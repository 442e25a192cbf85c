import random

import pytest

from topoasm.geom import (
    Box3,
    DefectPolyline,
    GeometryBuilder,
    GeometryError,
    GeometrySet,
    LayoutConfig,
    Point3,
    box_from_extents,
    cell_box,
    global_bounding_box,
    merge_boxes,
    plumbing_volume,
    polyline_from_cells,
)
from topoasm.icm import ICMCircuit, ICMOp, parse_icm


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
    assert plumbing_volume(b) == plumbing_volume(b.translated(-17, 9, 100))


def test_unit_segment_bounding_box():
    poly = DefectPolyline("primal", "circuit", [Point3(0, 0, 0)])
    assert poly.cells() == {(0, 0, 0)}
    assert poly.bounding_box().extents == (1, 1, 1)


def test_polyline_rejects_diagonals_and_zero_segments():
    with pytest.raises(GeometryError):
        DefectPolyline("primal", "circuit", [Point3(0, 0, 0), Point3(1, 1, 0)])
    with pytest.raises(GeometryError):
        DefectPolyline("primal", "circuit", [Point3(0, 0, 0), Point3(0, 0, 0)])


def test_polyline_cells_cover_turns_once():
    poly = polyline_from_cells([(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 2, 0)], "primal", "circuit")
    assert poly.cells() == {(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 2, 0)}
    claimed = []
    for box in poly.claim_boxes():
        claimed.extend(box.cells())
    assert sorted(claimed) == sorted(poly.cells())  # disjoint cover, no dups


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
        assert poly.cells() == set(cells)
        claimed = []
        for box in poly.claim_boxes():
            claimed.extend(box.cells())
        assert sorted(claimed) == sorted(set(cells))


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


def test_global_bounding_box_empty_set_errors():
    with pytest.raises(GeometryError):
        global_bounding_box(GeometrySet())


def _emit(circuit, horizon, layout=None):
    g = GeometrySet()
    builder = GeometryBuilder(circuit, layout or LayoutConfig(), g)
    builder.emit_until(horizon)
    return g, builder


def test_emit_idle_wire_extent():
    circuit = ICMCircuit(1, [])
    g, _ = _emit(circuit, 5)
    assert len(g.defects) == 1
    assert g.defects[0].bounding_box().extents == (5, 1, 1)
    assert g.pins == []


def test_emit_one_shot_equals_incremental(toffoli):
    g, _ = _emit(toffoli, toffoli.last_timestep + 1)
    incremental = GeometrySet()
    b = GeometryBuilder(toffoli, LayoutConfig(), incremental)
    for h in range(0, toffoli.last_timestep + 2, 7):
        b.emit_until(h)
    b.emit_until(toffoli.last_timestep + 1)
    assert {c for d in g.defects for c in d.cells()} == {
        c for d in incremental.defects for c in d.cells()
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
    bb = braids[0].bounding_box()
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
    from topoasm.route import World

    g = GeometrySet()
    world = World()
    builder = GeometryBuilder(circuit, LayoutConfig(), g, claim=world.claim)
    with pytest.raises(TemplateCollisionError):
        builder.emit_until(10)


def test_emit_is_idempotent_and_monotone():
    circuit = parse_icm("@0 init 0 A\n@0 init 1 0\n@2 cnot 0 1\n@5 measure 0 X\n@9 measure 1 Z\n")
    g1 = GeometrySet()
    b1 = GeometryBuilder(circuit, LayoutConfig(), g1)
    b1.emit_until(4)
    cells_4 = {c for d in g1.defects for c in d.cells()}
    b1.emit_until(4)
    assert {c for d in g1.defects for c in d.cells()} == cells_4
    b1.emit_until(10)
    cells_10 = {c for d in g1.defects for c in d.cells()}
    assert cells_4 <= cells_10

    g2 = GeometrySet()
    b2 = GeometryBuilder(circuit, LayoutConfig(), g2)
    b2.emit_until(10)
    assert {c for d in g2.defects for c in d.cells()} == cells_10
    with pytest.raises(GeometryError):
        b2.emit_until(3)


def test_emit_pins_appear_with_horizon(toffoli):
    g = GeometrySet()
    builder = GeometryBuilder(toffoli, LayoutConfig(), g)
    first_t = toffoli.magic_inputs[0].timestep
    builder.emit_until(first_t)  # cells strictly before the first inputs
    assert g.pins == []
    builder.emit_until(first_t + 1)
    assert len(g.pins) == 3  # the three step-1 inputs
    pinned = {key for key, _ in g.pins}
    assert all(m.key in pinned for m in toffoli.magic_inputs[:3])


def test_emit_magic_pin_cell_left_unclaimed(toffoli):
    g = GeometrySet()
    builder = GeometryBuilder(toffoli, LayoutConfig(), g)
    builder.emit_until(toffoli.last_timestep + 1)
    claimed = {c for d in g.defects for c in d.cells()}
    for key, pin in g.pins:
        assert pin.as_tuple() not in claimed


def test_emit_no_cell_claimed_twice(toffoli):
    from collections import Counter

    g = GeometrySet()
    builder = GeometryBuilder(toffoli, LayoutConfig(), g)
    builder.emit_until(toffoli.last_timestep + 1)
    counts = Counter()
    for cell, _ in g.iter_solid_cells():
        counts[cell] += 1
    dup = [c for c, n in counts.items() if n > 1]
    assert dup == []
