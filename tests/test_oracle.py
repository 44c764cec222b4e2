import hashlib
import itertools
from fractions import Fraction

import pytest

from cubetri.complexes import validate_face_to_face, weighted_size
from cubetri.geometry import (
    cube_config,
    facet_inequalities,
    normalized_volume,
    product_config,
    simplex_config,
)
from cubetri.linalg import det_bareiss
from cubetri.oracle import (
    SearchProblem,
    _Enumerator,
    count_triangulations,
    enumerate_triangulations,
    min_weighted_size,
)


def test_segment_single_triangulation():
    cfg = product_config(cube_config(1), simplex_config(0))
    assert count_triangulations(SearchProblem(cfg)) == 1


def test_square_two_triangulations():
    tris = list(enumerate_triangulations(SearchProblem(cube_config(2))))
    assert len(tris) == 2
    assert {frozenset(t.simplices) for t in tris} == {
        frozenset({(0, 2, 3), (0, 1, 3)}),
        frozenset({(0, 1, 2), (1, 2, 3)}),
    }


def test_cube_counts_and_minimum():
    # the 3-cube has 74 triangulations; two independent canonical
    # enumerations must agree, and the smallest has five cells
    p = SearchProblem(cube_config(3), objective="cardinality")
    assert count_triangulations(p, anchor=0) == 74
    assert count_triangulations(p, anchor=7) == 74
    value, witness = min_weighted_size(p)
    assert value == 5 and witness.size == 5
    assert validate_face_to_face(witness).is_face_to_face


def test_square_pair_minimum_weighted():
    cfg = product_config(cube_config(2), simplex_config(1))
    value, witness = min_weighted_size(SearchProblem(cfg))
    assert value == 3
    assert weighted_size(witness) == 3
    assert validate_face_to_face(witness).is_face_to_face
    # same geometry as the 3-cube, so the census must agree too
    assert count_triangulations(SearchProblem(cfg)) == 74


def test_prism_minimum_is_m():
    for m in (2, 3):
        cfg = product_config(cube_config(1), simplex_config(m - 1))
        value, _ = min_weighted_size(SearchProblem(cfg))
        assert value == m
        for tri in enumerate_triangulations(SearchProblem(cfg)):
            assert weighted_size(tri) == m


def test_every_witness_face_to_face():
    cfg = product_config(cube_config(1), simplex_config(2))
    for tri in enumerate_triangulations(SearchProblem(cfg)):
        assert validate_face_to_face(tri).is_face_to_face


def test_guard():
    with pytest.raises(ValueError):
        count_triangulations(SearchProblem(cube_config(5)))


def test_oracle_minima_match_known_efficiency_rows():
    # guarded cases: l = 1 (all prisms unimodular), l = 2 with one or two
    # summands, and the 3-cube
    cases = [
        (cube_config(2), Fraction(1), 2, 1),
        (product_config(cube_config(2), simplex_config(1)), Fraction(3), 2, 2),
        (cube_config(3), Fraction(5, 6), 3, 1),
    ]
    for cfg, expected, l, m in cases:
        value, _ = min_weighted_size(SearchProblem(cfg))
        assert value == expected
    # the family construction is optimal at m=2: oracle minimum equals it
    from cubetri.cayley import mixed_weighted_size
    from cubetri.seeds import square_family

    value, _ = min_weighted_size(
        SearchProblem(product_config(cube_config(2), simplex_config(1)))
    )
    assert value == mixed_weighted_size(square_family(2))


# -- the census against the scalar code it replaced ----------------------------
#
# The enumerator takes its candidate volumes, the side of every ridge's apex
# and the boundary ridges from the census in ``complexes``. The references
# below are the scalar code it used before: one volume per (d+1)-subset, one
# orientation determinant per (ridge, apex), and a facet scan per ridge.


def scalar_census(cfg):
    """(candidates, volumes): the (d+1)-subsets of nonzero volume, in
    ``itertools.combinations`` order."""
    cands, vols = [], []
    for combo in itertools.combinations(range(len(cfg.points)), cfg.dim + 1):
        v = normalized_volume([cfg.points[i] for i in combo])
        if v > 0:
            cands.append(combo)
            vols.append(v)
    return cands, vols


def scalar_side(cfg, ridge, vertex):
    """Sign of the orientation determinant of (ridge, vertex)."""
    p0 = cfg.points[ridge[0]]
    rows = [[cfg.points[i][j] - p0[j] for j in range(cfg.dim)] for i in ridge[1:]]
    rows.append([cfg.points[vertex][j] - p0[j] for j in range(cfg.dim)])
    det = det_bareiss(rows)
    return (det > 0) - (det < 0)


def scalar_is_boundary(cfg, ridge):
    rpts = [cfg.points[i] for i in ridge]
    return any(
        all(sum(a * x for a, x in zip(av, p)) == b for p in rpts)
        for av, b in facet_inequalities(cfg.label)
    )


# name -> (configuration, triangulations, order hash at the first anchor,
# order hash at the last point as anchor)
PINNED = {
    "cube(2)": (cube_config(2), 2, "937a66449a8c08d3", "792afac934e62aad"),
    "cube(3)": (cube_config(3), 74, "83518d5b2ed6e68b", "73fa7e0b0ce2eb2a"),
    "cube(2)xsimplex(1)": (
        product_config(cube_config(2), simplex_config(1)),
        74,
        "83518d5b2ed6e68b",
        "73fa7e0b0ce2eb2a",
    ),
    "cube(1)xsimplex(2)": (
        product_config(cube_config(1), simplex_config(2)),
        6,
        "363d1058ab170c4a",
        "b6d53260c6204b55",
    ),
    "cube(1)xsimplex(3)": (
        product_config(cube_config(1), simplex_config(3)),
        24,
        "abbfbd8cf1906f17",
        "9ee59feb70f8a19f",
    ),
    "cube(1)xsimplex(4)": (
        product_config(cube_config(1), simplex_config(4)),
        120,
        "153655d9b8e22778",
        "0c1bf5471195c845",
    ),
    "simplex(2)xsimplex(2)": (
        product_config(simplex_config(2), simplex_config(2)),
        108,
        "84b01dfa7c683aa6",
        "c4b7d51d395ac825",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_census_matches_the_scalar_reference(name):
    cfg = PINNED[name][0]
    enum = _Enumerator(cfg)
    cands, vols = scalar_census(cfg)
    assert enum.cands == cands
    assert enum.vols == vols
    assert enum.boundary == {
        ridge for ridge in enum.by_ridge if scalar_is_boundary(cfg, ridge)
    }
    n_sides = 0
    for ci, s in enumerate(cands):
        for drop in s:
            ridge = tuple(i for i in s if i != drop)
            assert enum.by_ridge[ridge][ci] == scalar_side(cfg, ridge, drop)
            n_sides += 1
    assert n_sides == sum(map(len, enum.by_ridge.values()))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_enumeration_order_is_pinned(name):
    cfg, count, *hashes = PINNED[name]
    for anchor, want in zip((0, len(cfg.points) - 1), hashes):
        tris = [
            t.simplices
            for t in enumerate_triangulations(SearchProblem(cfg), anchor=anchor)
        ]
        assert len(tris) == count
        assert hashlib.sha256(repr(tris).encode()).hexdigest()[:16] == want
