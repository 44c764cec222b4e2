import json
import math
import random
from fractions import Fraction

import pytest

from cubetri.complexes import (
    Triangulation,
    efficiency,
    ridge_report,
    simplex_type,
    triangulation_from_json,
    triangulation_to_json,
    validate_dissection,
    validate_face_to_face,
    weighted_size,
)
from cubetri.geometry import (
    PointConfiguration,
    cube_config,
    product_config,
    simplex_config,
)
from cubetri.staircase import staircase_triangulation
from cubetri.verification import batch_volumes_of, volume_total

UNIT_SQUARE = Triangulation(cube_config(2), ((0, 2, 3), (0, 1, 3)))


def test_dissection_unit_square():
    report = validate_dissection(UNIT_SQUARE, expected=2)
    assert report.is_dissection and report.volume_total == 2


def test_dissection_duplicate_overlaps():
    tri = Triangulation(cube_config(2), ((0, 2, 3), (0, 1, 3), (0, 1, 3)))
    report = validate_dissection(tri, expected=2)
    assert not report.is_dissection
    kinds = {v.kind for v in report.violations}
    assert "duplicate" in kinds or "interior-overlap" in kinds
    assert any(v.kind == "interior-overlap" for v in report.violations)


def test_dissection_volume_deficit():
    tri = Triangulation(cube_config(2), ((0, 2, 3),))
    report = validate_dissection(tri, expected=2)
    assert not report.is_dissection
    assert any(v.kind == "volume-mismatch" for v in report.violations)


def test_dissection_names_degenerate_simplex():
    cfg = PointConfiguration(None, ((0, 0), (1, 0), (2, 0), (0, 1)), 2)
    tri = Triangulation(cfg, ((0, 1, 3), (1, 2, 3), (0, 1, 2)))
    report = validate_dissection(tri, expected=2)
    assert not report.is_dissection and report.volume_total == 2
    degenerate = [v for v in report.violations if v.kind == "degenerate"]
    assert [v.members for v in degenerate] == [((0, 1, 2),)]


def test_dissection_names_not_full_dimensional_simplex():
    with pytest.raises(ValueError, match="different sizes"):
        Triangulation(cube_config(2), ((0, 2, 3), (3, 0), (0, 1, 3)))
    # The two diagonals of the square: simplices of one size, but not d+1.
    tri = Triangulation(cube_config(2), ((3, 0), (1, 2)))
    report = validate_dissection(tri, expected=2, pairwise=False)
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


def test_face_to_face_shared_diagonal():
    report = validate_face_to_face(UNIT_SQUARE, expected=2)
    assert report.is_face_to_face and report.is_dissection


def _big_square_config(points):
    return PointConfiguration(None, tuple(points), 2)


def test_face_to_face_t_vertex_fails():
    # Three triangles tiling [0,2]^2 where a hanging vertex sits on the
    # interior of another triangle's edge: a dissection, not a complex.
    cfg = _big_square_config([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)])
    tri = Triangulation(cfg, ((0, 1, 2), (0, 4, 3), (3, 4, 2)))
    diss = validate_dissection(tri, expected=8)
    assert diss.is_dissection
    report = validate_face_to_face(tri, expected=8)
    assert not report.is_face_to_face
    assert any(v.kind == "not-face-to-face" for v in report.violations)


def test_face_to_face_fan_passes():
    # The four-triangle fan through the center point is a genuine complex.
    cfg = _big_square_config([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)])
    tri = Triangulation(cfg, ((0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4)))
    report = validate_face_to_face(tri, expected=8)
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
    # two vertices over the first simplex vertex, one over the second
    prism = product_config(cube_config(1), simplex_config(1))
    t = simplex_type((0, 2, 3), prism)
    assert t.t == (1, 0) and t.weight == 1

    cube_as_product = product_config(cube_config(3), simplex_config(0))
    t = simplex_type((0, 1, 2, 4), cube_as_product)
    assert t.t == (3,) and t.weight == Fraction(1, 6)

    p31 = product_config(cube_config(3), simplex_config(1))
    # three vertices over v1, two over v2
    s = (0 * 2, 1 * 2, 2 * 2, 4 * 2 + 1, 5 * 2 + 1)
    t = simplex_type(tuple(sorted(s)), p31)
    assert t.t == (2, 1) and t.weight == Fraction(1, 2)


def test_weighted_size_prism_is_m():
    from cubetri.oracle import SearchProblem, enumerate_triangulations

    for m in (2, 3):
        cfg = product_config(cube_config(1), simplex_config(m - 1))
        for tri in enumerate_triangulations(SearchProblem(cfg)):
            assert weighted_size(tri) == m


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
