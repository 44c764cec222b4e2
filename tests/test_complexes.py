import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from helpers import census_batches, type_weight

from cubetri import complexes
from cubetri.coloring import staircase_triangulation
from cubetri.complexes import (
    Triangulation,
    _census,
    _runs,
    efficiency,
    factor_blocks,
    ridge_report,
    simplex_costs,
    simplex_factor,
    triangulation_from_json,
    triangulation_to_json,
    validate_dissection,
    validate_face_to_face,
    weighted_size,
)
from cubetri.geometry import (
    PointConfiguration,
    cube_config,
    minkowski_config,
    parse_label,
    product_config,
    simplex_config,
)
from cubetri.seeds import minimal_cube, unimodular_cube
from cubetri.verification import batch_volumes_of, volume_total

UNIT_SQUARE = Triangulation(cube_config(2), ((0, 2, 3), (0, 1, 3)))
# [0,2]^2 on its nine lattice points; (a, b) has index 3a + b
BIG_SQUARE = minkowski_config(2, 2)


def test_dissection_unit_square():
    report = validate_dissection(UNIT_SQUARE)
    assert report.is_dissection and report.volume_total == 2


def test_dissection_duplicate_overlaps():
    tri = Triangulation(cube_config(2), ((0, 2, 3), (0, 1, 3), (0, 1, 3)))
    report = validate_dissection(tri)
    assert not report.is_dissection
    kinds = {v.kind for v in report.violations}
    assert "duplicate" in kinds or "interior-overlap" in kinds
    assert any(v.kind == "interior-overlap" for v in report.violations)


def test_dissection_volume_deficit():
    tri = Triangulation(cube_config(2), ((0, 2, 3),))
    report = validate_dissection(tri)
    assert not report.is_dissection
    assert any(v.kind == "volume-mismatch" for v in report.violations)


def test_dissection_names_degenerate_simplex():
    # (0,0), (1,0) and (2,0), indices 0, 3 and 6, lie on one line
    tri = Triangulation(BIG_SQUARE, ((0, 1, 3), (1, 3, 6), (0, 3, 6)))
    report = validate_dissection(tri)
    assert not report.is_dissection and report.volume_total == 2
    degenerate = [v for v in report.violations if v.kind == "degenerate"]
    assert [v.members for v in degenerate] == [((0, 3, 6),)]


def test_dissection_names_not_full_dimensional_simplex():
    with pytest.raises(ValueError, match="different sizes"):
        Triangulation(cube_config(2), ((0, 2, 3), (3, 0), (0, 1, 3)))
    # The two diagonals of the square: simplices of one size, but not d+1.
    tri = Triangulation(cube_config(2), ((3, 0), (1, 2)))
    report = validate_dissection(tri, pairwise=False)
    assert not report.is_dissection and report.volume_total == 0
    kinds = [(v.kind, v.members) for v in report.violations]
    assert kinds == [
        ("not-full-dimensional", ((0, 3),)),
        ("not-full-dimensional", ((1, 2),)),
        ("volume-mismatch", ()),
    ]


def test_zero_dimensional_census():
    tri = Triangulation(simplex_config(0), ((0,),))
    report = validate_dissection(tri)
    assert report.is_dissection and report.volume_total == 1
    assert volume_total(tri) == 1
    assert batch_volumes_of(tri.config.points, list(tri.simplices)) == (1, 0)


@pytest.mark.parametrize(
    "chunks, dtype",
    [
        ([[127, -5]], np.int8),
        ([[128, 1]], np.int64),
        ([[-128, 3]], np.int8),
        ([[-129, 3]], np.int64),
        ([[-128, 127], [127, -128]], np.int8),
        ([[5, -7], [128, 2]], np.int64),
        ([[5, -128], [-129, 2]], np.int64),
        ([[127, 0], [300, -2], [-1, 1]], np.int64),
    ],
)
def test_the_census_keeps_volumes_as_int8_only_while_they_fit(
    monkeypatch, chunks, dtype
):
    # _census keeps the volumes as int8 while every chunk's lie in
    # [-128, 127], and as int64 from the first chunk that does not, with
    # the earlier chunks' volumes carried over. signed_volumes is stubbed
    # to give volumes at the int8 edge, which no cube simplex has.
    census_batches(monkeypatch, 2)
    parts = iter(np.array(part, dtype=np.int64) for part in chunks)
    monkeypatch.setattr(complexes, "signed_volumes", lambda points, rows: next(parts))
    rows = [(0, 1, 3)] * (2 * len(chunks))
    full, vols, total, violations = _census(Triangulation(cube_config(2), rows))
    want = [v for part in chunks for v in part]
    assert vols.dtype == dtype and vols.tolist() == want
    assert total == sum(map(abs, want)) and len(full) == len(want)
    assert [v.kind for v in violations] == ["degenerate"] * want.count(0) + [
        "volume-mismatch"
    ]


def test_face_to_face_shared_diagonal():
    report = validate_face_to_face(UNIT_SQUARE)
    assert report.is_face_to_face and report.is_dissection


def test_face_to_face_t_vertex_fails():
    # Three triangles tiling [0,2]^2 where a hanging vertex sits on the
    # interior of another triangle's edge: a dissection, not a complex.
    tri = Triangulation(BIG_SQUARE, ((0, 6, 8), (0, 4, 2), (2, 4, 8)))
    diss = validate_dissection(tri)
    assert diss.is_dissection
    report = validate_face_to_face(tri)
    assert not report.is_face_to_face
    assert any(v.kind == "not-face-to-face" for v in report.violations)


def test_face_to_face_fan_passes():
    # The four-triangle fan through the center point is a genuine complex.
    tri = Triangulation(BIG_SQUARE, ((0, 6, 4), (6, 8, 4), (8, 2, 4), (0, 2, 4)))
    report = validate_face_to_face(tri)
    assert report.is_face_to_face


def test_face_to_face_staircase_d2xd2():
    tri = staircase_triangulation(2, 2)
    assert len(tri.config.points) == 9 and tri.size == 6
    report = validate_face_to_face(tri)
    assert report.is_face_to_face


def test_face_to_face_order_independent_idempotent():
    rng = random.Random(3)
    tri = staircase_triangulation(1, 2)
    for _ in range(3):
        order = list(tri.simplices)
        rng.shuffle(order)
        shuffled = Triangulation(tri.config, tuple(order))
        assert validate_face_to_face(shuffled).is_face_to_face
    assert validate_face_to_face(tri).is_face_to_face  # idempotent


def test_ridge_mode_agrees_on_small_cases():
    good = staircase_triangulation(2, 1)
    assert ridge_report(good).is_dissection
    bad = Triangulation(cube_config(2), ((0, 2, 3),))
    assert not ridge_report(bad).is_dissection


def test_efficiency_values():
    assert round(efficiency(5, 3), 3) == 0.941
    for d in (1, 2, 3, 5):
        assert abs(efficiency(math.factorial(d), d) - 1.0) < 1e-12
    assert abs(efficiency(2, 2) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        efficiency(0, 3)


def test_simplex_type_examples():
    # A simplex's type is its block sizes minus one; the library weighs it
    # as the one-cell triangulation's weighted size.
    def check(s, config, m, t, weight):
        assert tuple(len(b) - 1 for b in factor_blocks(s, m)) == t
        assert weighted_size(Triangulation(config, (s,))) == weight
        assert type_weight(s, config) == weight

    # two vertices over the first simplex vertex, one over the second
    prism = product_config(cube_config(1), simplex_config(1))
    check((0, 2, 3), prism, 2, (1, 0), 1)

    cube_as_product = product_config(cube_config(3), simplex_config(0))
    check((0, 1, 2, 4), cube_as_product, 1, (3,), Fraction(1, 6))

    p31 = product_config(cube_config(3), simplex_config(1))
    # three vertices over v1, two over v2
    s = (0 * 2, 1 * 2, 2 * 2, 4 * 2 + 1, 5 * 2 + 1)
    check(tuple(sorted(s)), p31, 2, (2, 1), Fraction(1, 2))


def test_weighted_size_prism_is_m():
    from cubetri.oracle import SearchProblem, enumerate_triangulations

    for m in (2, 3):
        cfg = product_config(cube_config(1), simplex_config(m - 1))
        for tri in enumerate_triangulations(SearchProblem(cfg)):
            assert weighted_size(tri) == m


def test_weighted_size_sums_the_type_weights():
    # the integer costs over one denominator give the sum of 1/prod t_i!
    from cubetri.cayley import mixed_to_triangulation
    from cubetri.seeds import cayley_seed, minimal_cube, square_family

    tris = [cayley_seed("i3d1"), cayley_seed("i3d2")]
    tris += [mixed_to_triangulation(square_family(m)) for m in (2, 3, 5)]
    for tri in tris:
        weights = (type_weight(s, tri.config) for s in tri.simplices)
        assert weighted_size(tri) == sum(weights, Fraction(0))
    # a cube is cube x simplex(0): every cell weighs 1/l!
    assert weighted_size(minimal_cube(3)) == Fraction(5, 6)
    with pytest.raises(ValueError, match="cover every factor vertex"):
        # all four vertices over the first simplex vertex
        prism = product_config(cube_config(2), simplex_config(1))
        weighted_size(Triangulation(prism, ((0, 2, 4, 6),)))


def test_json_round_trip():
    tri = staircase_triangulation(1, 1)
    text = triangulation_to_json(tri)
    back = triangulation_from_json(text)
    assert back.simplices == tri.simplices
    assert str(back.config.label) == str(tri.config.label)
    obj = json.loads(text)
    assert set(obj) == {"dim", "label", "points", "simplices"}
    obj["points"][0], obj["points"][1] = obj["points"][1], obj["points"][0]
    with pytest.raises(ValueError):
        triangulation_from_json(json.dumps(obj))


def test_weighted_size_bounded_by_unimodular_total():
    # over every triangulation of square x segment: weighted size <= m^l,
    # with equality exactly when all cells are unimodular
    from cubetri.oracle import SearchProblem, enumerate_triangulations

    cfg = product_config(cube_config(2), simplex_config(1))
    for tri in enumerate_triangulations(SearchProblem(cfg)):
        ws = weighted_size(tri)
        assert ws <= 4
        unimodular = all(tri.volume_of(s) == 1 for s in tri.simplices)
        assert (ws == 4) == unimodular


@pytest.mark.parametrize(
    "label, factor, m",
    [
        ("cube(3)", "cube(3)", 1),
        ("simplex(2)", "simplex(2)", 1),
        ("minkowski(cube(2),3)", "minkowski(cube(2),3)", 1),
        ("cube(2)xcube(1)", "cube(2)xcube(1)", 1),
        ("cube(3)xsimplex(2)", "cube(3)", 3),
    ],
)
def test_every_label_has_a_simplex_factor(label, factor, m):
    # a label with no simplex factor is P x simplex(0): the same points
    cfg = PointConfiguration(parse_label(label))
    left, got = simplex_factor(cfg)
    assert (str(left), got) == (factor, m)
    if m == 1:
        assert product_config(PointConfiguration(left), simplex_config(0)).points == (
            cfg.points
        )


def test_a_label_with_no_simplex_factor_costs_one_per_cell():
    # m = 1: every row is of type (l,), costing l!/l! = 1 over l!
    tri = unimodular_cube(3)
    assert simplex_costs(tri.config, tri.rows) == ([1] * 6, 6)
    assert weighted_size(minimal_cube(3)) == Fraction(5, 6)
    assert simplex_costs(BIG_SQUARE, np.array([[0, 1, 3]])) == ([1], 2)


@pytest.mark.parametrize("label", ["cube(2)", "cube(2)xsimplex(0)", "cube(1)xsimplex(1)"])
def test_only_full_dimensional_rows_have_a_weight(label):
    cfg = PointConfiguration(parse_label(label))
    for rows in ([(0, 1)], [(0, 1, 2, 3)]):
        with pytest.raises(ValueError, match="vertices, not 3"):
            weighted_size(Triangulation(cfg, rows))


@pytest.mark.parametrize("n, width", [(0, 0), (0, 3), (5, 0), (200, 1), (200, 3)])
def test_runs_group_equal_rows_like_a_dict(n, width):
    # Random rows with repeats, and the edge cases: no rows, and rows of no
    # columns (a point's ridges), which are all equal.
    rows = np.random.default_rng(n + width).integers(0, 3, (n, width), np.uint16)
    groups: dict = {}
    for i, row in enumerate(map(tuple, rows.tolist())):
        groups.setdefault(row, []).append(i)
    cols = list(rows.T)
    order, starts = _runs(cols, n)
    assert cols == [] and starts[n]
    cuts = np.flatnonzero(starts)
    assert [order[a:b].tolist() for a, b in zip(cuts, cuts[1:])] == [
        groups[row] for row in sorted(groups)
    ]
