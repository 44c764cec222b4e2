import hashlib
import itertools
from fractions import Fraction

import pytest
from helpers import (
    ReferenceEnumerator,
    reference_min_weighted_size,
    reference_validate_face_to_face,
)

from cubetri import oracle
from cubetri.complexes import Triangulation, signed_volumes, weighted_size
from cubetri.geometry import (
    PointConfiguration,
    cube_config,
    facet_inequalities,
    normalized_volume,
    parse_label,
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


def anchored(cfg, anchor):
    """An enumerator whose starting cells are those at ``anchor``, not at
    vertex 0: any vertex gives a canonical enumeration."""
    enum = _Enumerator(cfg)
    enum.anchor = anchor
    return enum


def anchored_triangulations(cfg, anchor):
    """:func:`enumerate_triangulations`, with the starting cells at ``anchor``."""
    enum = anchored(cfg, anchor)
    return [Triangulation(cfg, enum.cand_rows[sorted(c)]) for c in enum.enumerate()]


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
    assert count_triangulations(p) == 74
    assert len(anchored_triangulations(p.config, 7)) == 74
    value, witness = min_weighted_size(p)
    assert value == 5 and witness.size == 5
    assert reference_validate_face_to_face(witness).is_face_to_face


def test_square_pair_minimum_weighted():
    cfg = product_config(cube_config(2), simplex_config(1))
    value, witness = min_weighted_size(SearchProblem(cfg))
    assert value == 3
    assert weighted_size(witness) == 3
    assert reference_validate_face_to_face(witness).is_face_to_face
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
        assert reference_validate_face_to_face(tri).is_face_to_face


def test_guard():
    # the guard holds when the problem is built, before any search
    with pytest.raises(ValueError, match="exceeds guard"):
        SearchProblem(cube_config(5))


def test_unknown_objective_is_rejected():
    # before any search, and not read as the weighted size
    with pytest.raises(ValueError, match="unknown objective 'bogus'"):
        SearchProblem(cube_config(2), objective="bogus")


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
    from cubetri.cayley import mixed_to_triangulation
    from cubetri.seeds import square_family

    value, _ = min_weighted_size(
        SearchProblem(product_config(cube_config(2), simplex_config(1)))
    )
    assert value == weighted_size(mixed_to_triangulation(square_family(2)))


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
    assert enum.cand_rows.tolist() == [list(s) for s in cands]
    assert enum.vols == vols
    # ridges are named by their rank in ridge_rows
    ridges = list(map(tuple, enum.ridge_rows.tolist()))
    rank = {ridge: r for r, ridge in enumerate(ridges)}
    assert len(rank) == len(ridges)
    assert enum.boundary == [scalar_is_boundary(cfg, ridge) for ridge in ridges]
    n_sides = 0
    for ci, s in enumerate(cands):
        faces = []
        for drop in s:
            ridge = tuple(i for i in s if i != drop)
            faces.append(rank[ridge])
            assert enum.sides[rank[ridge]][ci] == scalar_side(cfg, ridge, drop)
            n_sides += 1
        assert enum.ridges[ci] == (
            frozenset(faces),
            [r for r in faces if not enum.boundary[r]],
            [r for r in faces if enum.boundary[r]],
        )
    assert n_sides == sum(map(len, enum.sides))
    # candidates ascending within each ridge
    assert all(list(sides) == sorted(sides) for sides in enum.sides)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_ridge_ranks_are_lexicographic(name):
    # the first open ridge by rank is the lexicographically first
    rows = _Enumerator(PINNED[name][0]).ridge_rows.tolist()
    assert all(a < b for a, b in zip(rows, rows[1:]))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_enumeration_order_is_pinned(name):
    cfg, count, *hashes = PINNED[name]
    at_first = list(enumerate_triangulations(SearchProblem(cfg)))
    at_last = anchored_triangulations(cfg, len(cfg.points) - 1)
    for found, want in zip((at_first, at_last), hashes):
        tris = [t.simplices for t in found]
        assert len(tris) == count
        assert hashlib.sha256(repr(tris).encode()).hexdigest()[:16] == want


# -- the ridge search against the LP-pruned reference --------------------------

REFERENCE_CASES = {name: cfg for name, (cfg, *_) in PINNED.items()} | {
    "cube(1)xsimplex(5)": product_config(cube_config(1), simplex_config(5)),
    "simplex(2)xsimplex(3)": product_config(simplex_config(2), simplex_config(3)),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
def test_ridge_search_matches_the_lp_reference(name):
    cfg = REFERENCE_CASES[name]
    for anchor in (0, len(cfg.points) - 1):
        enum = anchored(cfg, anchor)
        ref = ReferenceEnumerator(cfg, anchor=anchor)
        assert enum._generic_direction() == ref._generic_direction()
        assert list(enum.enumerate()) == list(ref.enumerate())


def test_the_generic_direction_takes_one_census(monkeypatch):
    # On cube(3) the centroid direction alone is not generic, and the
    # perturbation decides. One census for the candidates and one, with two
    # more points, for the centroid and the perturbation.
    calls = []

    def counting(points, rows):
        calls.append(len(points))
        return signed_volumes(points, rows)

    monkeypatch.setattr(oracle, "signed_volumes", counting)
    cfg = cube_config(3)
    enum = _Enumerator(cfg)
    assert enum._generic_direction() == ReferenceEnumerator(cfg)._generic_direction()
    assert calls == [8, 10]


STARTING_CELL_LABELS = (
    [f"cube({l})" for l in range(1, 5)]
    + [f"simplex({k})" for k in range(1, 6)]
    + [f"cube(1)xsimplex({k})" for k in range(1, 7)]
    + [f"cube(2)xsimplex({k})" for k in range(1, 4)]
    + ["cube(3)xsimplex(1)"]
    + [f"simplex(1)xsimplex({k})" for k in range(1, 6)]
    + [f"simplex({a})xsimplex({b})" for a, b in ((2, 1), (2, 2), (2, 3), (2, 4),
                                               (3, 1), (3, 2), (4, 1))]
    + ["cube(1)xcube(1)", "cube(1)xcube(2)", "cube(2)xcube(1)", "simplex(2)xcube(1)"]
    + [f"minkowski(cube(1),{m})" for m in (2, 3, 4)]
    + [f"minkowski(cube(2),{m})" for m in (2, 3, 4)]
    + ["simplex(1)xsimplex(1)xsimplex(1)", "cube(1)xsimplex(1)xsimplex(2)",
       "cube(1)xcube(1)xsimplex(2)"]
)


@pytest.mark.parametrize("text", STARTING_CELL_LABELS)
def test_the_exact_perturbation_starts_where_the_search_did(text):
    # base + eps w for an infinitesimal eps picks the cells that the
    # reference's search over 997 base + a w, a = 0, 1, ..., picks: on these
    # labels its first generic direction has every sign of base, and those
    # of w where base has none.
    cfg = PointConfiguration(parse_label(text))
    want = ReferenceEnumerator(cfg)._generic_direction()
    assert _Enumerator(cfg)._generic_direction() == want


# -- the branch-and-bound against the exhaustive minimum ------------------------

MINIMUM_CASES = {name: cfg for name, (cfg, *_) in PINNED.items()} | {
    "simplex(2)xsimplex(1)": product_config(simplex_config(2), simplex_config(1)),
    "cube(2)xsimplex(2)": product_config(cube_config(2), simplex_config(2)),
}


@pytest.mark.parametrize("objective", ["weighted", "cardinality"])
@pytest.mark.parametrize("name", sorted(MINIMUM_CASES))
def test_minimum_matches_the_exhaustive_reference(name, objective):
    # the same value and the same witness: the first minimal triangulation
    # in enumeration order
    problem = SearchProblem(MINIMUM_CASES[name], objective)
    value, witness = min_weighted_size(problem)
    want, reference = reference_min_weighted_size(problem)
    assert value == want
    assert witness.rows.tolist() == reference.rows.tolist()


def test_production_paths_take_no_lp_and_no_scalar_determinant(
    monkeypatch, tmp_path, capsys
):
    from cubetri import linalg, seeds
    from cubetri.cayley import validate_mixed
    from cubetri.cli import main
    from cubetri.complexes import ridge_report
    from cubetri.pipeline import PipelineSpec, build_cube_recursive

    def refuse(*args):
        raise AssertionError("a pairwise or scalar kernel was run")

    for name in ("feasible", "barycentric_rows", "det_bareiss"):
        monkeypatch.setattr(linalg, name, refuse)
    seeds._seed.cache_clear()
    for cfg, *_ in PINNED.values():
        min_weighted_size(SearchProblem(cfg))
    for dim in (4, 5, 6):
        tri, report = build_cube_recursive(PipelineSpec(dim=dim))
        assert report.ok and ridge_report(tri).is_face_to_face
    assert validate_mixed(seeds.seed_i3d1()).is_dissection
    assert validate_mixed(seeds.seed_i3d2()).is_dissection
    path = tmp_path / "t5.json"
    build_cube_recursive(PipelineSpec(dim=5, out=str(path)))
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out.startswith("volume census: True")
    # the patch bites: the pairwise reference scan does run them
    with pytest.raises(AssertionError, match="pairwise or scalar"):
        reference_validate_face_to_face(tri)


@pytest.mark.parametrize("name", ["cube(3)", "cube(1)xsimplex(3)"])
def test_a_full_ridge_takes_no_further_cell(name):
    # A facet ridge in one chosen cell, or an interior ridge in two, refuses
    # every further cell that contains it.
    enum = _Enumerator(PINNED[name][0])
    empty = ({}, frozenset(), 0)
    refused = 0
    for ridge, sides in enumerate(enum.sides):
        for a in sides:
            state = enum._after(empty, a)
            if not enum.boundary[ridge]:
                b = next((b for b in sides if sides[b] != sides[a]), None)
                state = None if b is None else enum._after(state, b)
            for c in sides:
                if state is not None and c != a:
                    assert enum._after(state, c) is None
                    refused += 1
    assert refused
