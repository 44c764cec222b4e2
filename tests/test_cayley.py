import math

import pytest

from cubetri.cayley import (
    MixedCell,
    MixedSubdivision,
    cell_normalized_volume,
    count_area2_squares,
    decompose_cell,
    mixed_from_json,
    mixed_to_json,
    mixed_to_triangulation,
    mixed_weighted_size,
    scale_mixed,
    summand_projection,
    triangulation_to_mixed,
    validate_mixed,
)
from cubetri.complexes import validate_face_to_face, weighted_size
from cubetri.geometry import cube_config
from cubetri.seeds import cayley_seed, seed_i3d1, square_family


def test_round_trip_i3d1():
    sub = seed_i3d1()
    tri = mixed_to_triangulation(sub)
    back = triangulation_to_mixed(tri)
    assert back.cells == sub.cells
    assert back.m == sub.m


def test_segment_case():
    # two triangles of segment x segment map to two cells of [0, 2]
    from helpers import two_triangle_prism

    tri = two_triangle_prism()
    sub = triangulation_to_mixed(tri)
    assert sub.m == 2 and len(sub.cells) == 2
    realized = sorted(
        tuple(sorted(sum(p) for p in _cell_pts(sub, c))) for c in sub.cells
    )
    assert realized == [(0, 1), (1, 2)]


def _cell_pts(sub, cell):
    from cubetri.cayley import cell_points

    return cell_points(sub.base, cell)


def test_cell_shapes_match_types():
    sub = seed_i3d1()
    tri = mixed_to_triangulation(sub)
    from cubetri.complexes import simplex_type

    for cell, s in zip(sub.cells, tri.simplices):
        t = simplex_type(s, tri.config)
        assert tuple(len(b) - 1 for b in cell.summands) == t.t


def test_mixed_weighted_size_equals_cayley():
    for sub in (seed_i3d1(), square_family(3)):
        tri = mixed_to_triangulation(sub)
        assert mixed_weighted_size(sub) == weighted_size(tri)


def test_mixed_to_triangulation_rejects_non_fine():
    base = cube_config(2)
    # first summand is a full square, not a simplex
    bad = MixedSubdivision(base, 2, (MixedCell(((0, 1, 2, 3), (0,))),))
    with pytest.raises(ValueError):
        mixed_to_triangulation(bad)


def test_square_family_2_round_trip_weight():
    sub = square_family(2)
    tri = mixed_to_triangulation(sub)
    assert weighted_size(tri) == 3
    assert validate_face_to_face(tri).is_face_to_face


def test_scale_identity():
    sub = seed_i3d1()
    assert scale_mixed(sub, (1, 1)).cells == sub.cells


def test_scale_volumes():
    # square_family(2) scaled by (2,2): tiles [0,4]^2
    sub = scale_mixed(square_family(2), (2, 2))
    total = sum(cell_normalized_volume(sub.base, c) for c in sub.cells)
    assert total == 4**2 * math.factorial(2)
    # i3d1 scaled by (2,1): three summands tiling [0,3]^3
    sub = scale_mixed(seed_i3d1(), (2, 1))
    assert sub.m == 3
    total = sum(cell_normalized_volume(sub.base, c) for c in sub.cells)
    assert total == 27 * math.factorial(3)


def test_scaled_cell_volumes_match_lift_counts():
    # per-cell: the scaled Minkowski volume and the lifted-cell volume are
    # both products over blocks, tied to the same base determinant
    from cubetri.staircase import lift_cell, multi_staircases, product_blocks

    t0 = cayley_seed("i3d1")
    sub = seed_i3d1()
    kvec = (2, 1)
    lifted_total = 0
    for s, cell in zip(t0.simplices, sub.cells):
        lc = lift_cell(t0, s, kvec)
        staircases = multi_staircases(lc)
        base_vol = t0.volume_of(s)
        lifted_total += base_vol * len(staircases)
    assert lifted_total == 60  # cube(3) x simplex(2) ambient volume


def test_count_area2_squares():
    assert count_area2_squares(square_family(2)) == 1
    assert count_area2_squares(square_family(5)) == 6
    # axis-parallel grid: no diagonal squares
    base = cube_config(2)
    h, v = (0, 2), (0, 1)
    grid = MixedSubdivision(
        base,
        2,
        (
            MixedCell((h, v)),
            MixedCell(((2,), (1,))) ,
        ),
    )
    assert count_area2_squares(grid) == 0


def test_summand_projection_square_family():
    for m in (2, 3, 4):
        sub = square_family(m)
        for i in range(m):
            proj = summand_projection(sub, i)
            assert proj.size == 2
            assert validate_face_to_face(proj, expected=2).is_face_to_face
            # the two cells share one diagonal: either {0,3} or {1,2}
            shared = frozenset(proj.simplices[0]) & frozenset(proj.simplices[1])
            assert shared in (frozenset({0, 3}), frozenset({1, 2}))


def test_summand_projection_orientations_product():
    for m in (2, 3, 5):
        sub = square_family(m)
        a = b = 0
        for i in range(m):
            proj = summand_projection(sub, i)
            shared = frozenset(proj.simplices[0]) & frozenset(proj.simplices[1])
            if shared == frozenset({0, 3}):
                a += 1
            else:
                b += 1
        assert a + b == m
        assert a * b == (m * m) // 4
        assert count_area2_squares(sub) == a * b


def test_summand_projection_i3d1_is_minimal_triangulation():
    sub = seed_i3d1()
    proj = summand_projection(sub, 0)
    assert proj.size in (5, 6)
    assert validate_face_to_face(proj, expected=6).is_face_to_face


def test_validate_mixed_catches_overlap():
    base = cube_config(2)
    bad = MixedSubdivision(
        base,
        1,
        (MixedCell(((0, 2, 3),)), MixedCell(((0, 2, 3),)), MixedCell(((0, 1, 3),))),
    )
    report = validate_mixed(bad)
    assert not report.is_dissection
    kinds = {v.kind for v in report.violations}
    assert "interior-overlap" in kinds and "volume-mismatch" in kinds


def test_validate_mixed_always_checks_fineness():
    # one summand is the whole square: not a simplex
    bad = MixedSubdivision(cube_config(2), 2, (MixedCell(((0, 1, 2, 3), (0,))),))
    report = validate_mixed(bad)
    assert [v.kind for v in report.violations] == [
        "not-fine", "degenerate", "volume-mismatch"
    ]


def test_decompose_cell_recovers_summands():
    sub = seed_i3d1()
    from cubetri.cayley import cell_points

    # the doubled central tetrahedron, given only by its vertex set
    cell = sub.cells[8]
    target = cell_points(sub.base, cell)
    found = decompose_cell(sub.base, 2, target)
    assert found is not None
    assert set(map(tuple, cell_points(sub.base, found))) == set(map(tuple, target))


def test_mixed_json_round_trip():
    sub = seed_i3d1()
    back = mixed_from_json(mixed_to_json(sub))
    assert back.cells == sub.cells and back.m == sub.m
    assert str(back.base.label) == "cube(3)"


def test_mixed_weighted_size_equals_cayley_i3d2():
    from cubetri.seeds import seed_i3d2

    sub = seed_i3d2()
    assert mixed_weighted_size(sub) == weighted_size(mixed_to_triangulation(sub))


def test_summand_projection_i3d1_second_copy():
    sub = seed_i3d1()
    proj = summand_projection(sub, 1)
    assert proj.size in (5, 6)
    assert validate_face_to_face(proj, expected=6).is_face_to_face


def test_scaled_cells_match_lift_cells_per_cell():
    # the scaled Minkowski cell and the lifted cell of the same base cell
    # both factor through the base determinant: dividing each volume by its
    # combinatorial factor must give the same integer, cell by cell
    from fractions import Fraction

    from cubetri.staircase import lift_cell, lift_count, multi_staircases

    t0 = cayley_seed("i3d1")
    sub = seed_i3d1()
    kvec = (2, 2)
    scaled = scale_mixed(sub, kvec)
    lifted_cfg_vol_check = 0
    for s, base_cell, scaled_cell in zip(t0.simplices, sub.cells, scaled.cells):
        dims = base_cell.dims()
        l = sum(dims)
        comb_scaled = Fraction(math.factorial(l))
        for k, t in zip(kvec, dims):
            comb_scaled = comb_scaled * k**t / math.factorial(t)
        det_from_scaled = cell_normalized_volume(scaled.base, scaled_cell) / comb_scaled
        lc = lift_cell(t0, s, kvec)
        count = len(multi_staircases(lc))
        comb_lift = 1
        for k, t in zip(kvec, dims):
            comb_lift *= lift_count(k, t + 1)
        assert count == comb_lift
        det_from_lift = Fraction(count * t0.volume_of(s), comb_lift)
        assert det_from_scaled == det_from_lift == t0.volume_of(s)
        lifted_cfg_vol_check += count * t0.volume_of(s)
    # total matches the ambient volume of cube(3) x simplex(3)
    assert lifted_cfg_vol_check == 120
