"""Agreement of the certificate-first pair predicates with the separation-LP
formulations they replaced.

The reference functions below are those earlier formulations: an affine
functional g, split into positive and negative parts with one slack per
inequality, that vanishes on the common vertices and strictly separates
the rest (face to face), or that properly separates two point sets
(disjoint relative interiors, for simplices and polytopes alike). The
earlier builders wrapped every entry in ``Fraction``; all entries were
integers, so the rows here are plain integers and go to the same exact
solver, :func:`cubetri.linalg.feasible`, which ``test_linalg`` checks
against a Fraction simplex.
"""

import itertools

from helpers import cell_points
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cubetri import linalg
from cubetri.cayley import MixedCell, MixedSubdivision
from cubetri.coloring import make_coloring, staircase_triangulation, triangulate_product
from cubetri.complexes import Triangulation
from cubetri.geometry import affine_rank, cube_config, minkowski_config
from cubetri.linalg import (
    barycentric_rows,
    feasible,
    polytopes_interiors_disjoint,
    simplices_face_to_face,
    simplices_interiors_disjoint,
)
from cubetri.seeds import (
    cayley_seed,
    minimal_cube,
    seed_i3d1,
    seed_i3d2,
    unimodular_cube,
)

# -- reference: the separation-LP formulations --------------------------------


def _g_row(p):
    return list(p) + [-x for x in p] + [1, -1]


def _separation_rows(points_neg, points_pos, equalities):
    """Rows for: affine g with g=0 on `equalities`, g<=-1 on points_neg,
    g>=+1 on points_pos. Variables: a+ (d), a- (d), c+, c-, one slack per
    inequality."""
    d = len((points_neg + points_pos + equalities)[0])
    n_slack = len(points_neg) + len(points_pos)
    rows = []
    rhs = []
    slack = 0
    for u in equalities:
        rows.append(_g_row(u) + [0] * n_slack)
        rhs.append(0)
    for v in points_neg:
        r = _g_row(v) + [0] * n_slack
        r[2 * d + 2 + slack] = 1
        slack += 1
        rows.append(r)
        rhs.append(-1)
    for w in points_pos:
        r = _g_row(w) + [0] * n_slack
        r[2 * d + 2 + slack] = -1
        slack += 1
        rows.append(r)
        rhs.append(1)
    return rows, rhs


def ref_face_to_face(pts_a, pts_b):
    common = set(pts_a) & set(pts_b)
    only_a = [p for p in pts_a if p not in common]
    only_b = [p for p in pts_b if p not in common]
    if not only_a and not only_b:
        return True
    rows, rhs = _separation_rows(only_a, only_b, sorted(common))
    return feasible(rows, rhs)


def ref_polytopes_interiors_disjoint(pts_a, pts_b):
    """Proper separation: an affine g <= 0 on A and >= 0 on B with
    Σ_B g - Σ_A g >= 1."""
    d = len(pts_a[0])
    na, nb = len(pts_a), len(pts_b)
    n_slack = na + nb + 1
    rows = []
    rhs = []
    slack = 0
    for v in pts_a:
        r = _g_row(v) + [0] * n_slack
        r[2 * d + 2 + slack] = 1
        slack += 1
        rows.append(r)
        rhs.append(0)
    for w in pts_b:
        r = _g_row(w) + [0] * n_slack
        r[2 * d + 2 + slack] = -1
        slack += 1
        rows.append(r)
        rhs.append(0)
    margin = [0] * (2 * d + 2 + n_slack)
    for w in pts_b:
        for j, x in enumerate(_g_row(w)):
            margin[j] += x
    for v in pts_a:
        for j, x in enumerate(_g_row(v)):
            margin[j] -= x
    margin[2 * d + 2 + slack] = -1
    rows.append(margin)
    rhs.append(1)
    return feasible(rows, rhs)


# -- comparison --------------------------------------------------------------


def check_pair(a, b):
    """Old and new agree, with and without the facet certificate; returns
    the (face-to-face, interiors-disjoint) verdicts."""
    a, b = list(a), list(b)
    ba, bb = barycentric_rows(a), barycentric_rows(b)
    f2f = ref_face_to_face(a, b)
    assert simplices_face_to_face(a, b, ba, bb) == f2f, (a, b)
    assert simplices_face_to_face(b, a, bb, ba) == f2f, (a, b)
    assert simplices_face_to_face(a, b) == f2f, (a, b)
    # For simplices the earlier predicate was already the barycentric LP;
    # proper separation, which exists iff the relative interiors are
    # disjoint (Rockafellar, Convex Analysis, Thm. 11.3), is the
    # independent reference.
    disjoint = ref_polytopes_interiors_disjoint(a, b)
    assert simplices_interiors_disjoint(a, b, ba, bb) == disjoint, (a, b)
    assert simplices_interiors_disjoint(b, a, bb, ba) == disjoint, (a, b)
    assert simplices_interiors_disjoint(a, b) == disjoint, (a, b)
    # meeting in a common proper face implies disjoint relative interiors
    assert disjoint or not f2f or set(a) == set(b)
    return f2f, disjoint


def check_triangulation(tri: Triangulation):
    cells = [tri.points_of(s) for s in tri.simplices]
    verdicts = [check_pair(a, b) for a, b in itertools.combinations(cells, 2)]
    return [v for v, _ in verdicts], [v for _, v in verdicts]


# -- fixtures ----------------------------------------------------------------


def _replace_vertex(tri: Triangulation, at: int) -> Triangulation:
    """Replace simplex ``at`` by another one of equal volume: the census
    stays exact, but the new simplex overlaps some other cell."""
    simplices = list(tri.simplices)
    s = simplices[at]
    vol = tri.volume_of(s)
    for out in s:
        for new in range(len(tri.config.points)):
            t = tuple(sorted(set(s) - {out} | {new}))
            if new not in s and t not in simplices and tri.volume_of(t) == vol:
                simplices[at] = t
                return Triangulation(tri.config, tuple(simplices))
    raise AssertionError("no equal-volume replacement")


def _lift(q_dim, seed, m):
    t_q = minimal_cube(q_dim)
    return triangulate_product(
        t_q, cayley_seed(seed), make_coloring(len(t_q.config.points), m, "balanced")
    )


def _fixtures():
    square = cube_config(2)
    big = minkowski_config(2, 2)  # [0,2]^2; (a, b) has index 3a + b
    lift4 = _lift(1, "i3d1", 2)
    return {
        "unit square": Triangulation(square, ((0, 2, 3), (0, 1, 3))),
        "duplicate": Triangulation(square, ((0, 2, 3), (0, 1, 3), (0, 1, 3))),
        "t-vertex": Triangulation(big, ((0, 6, 8), (0, 4, 2), (2, 4, 8))),
        "fan": Triangulation(big, ((0, 6, 4), (6, 8, 4), (8, 2, 4), (0, 2, 4))),
        "staircase 2x2": staircase_triangulation(2, 2),
        "staircase 1x3": staircase_triangulation(1, 3),
        "minimal cube 3": minimal_cube(3),
        "unimodular cube 3": unimodular_cube(3),
        "i3d1": cayley_seed("i3d1"),
        "i3d2": cayley_seed("i3d2"),
        "lift d=4": lift4,
        "lift d=4 overlap": _replace_vertex(lift4, lift4.size // 2),
    }


def test_agreement_on_fixtures():
    # identical simplices meet face to face but share their interior
    not_face_to_face = {"t-vertex", "lift d=4 overlap"}
    overlapping = {"duplicate", "lift d=4 overlap"}
    for name, tri in _fixtures().items():
        f2f, disjoint = check_triangulation(tri)
        assert all(f2f) == (name not in not_face_to_face), name
        assert all(disjoint) == (name not in overlapping), name


def test_polytope_agreement_on_seed_cells():
    for sub in (seed_i3d1(), seed_i3d2()):
        cells = [cell_points(sub.base, c) for c in sub.cells]
        for a, b in itertools.combinations(cells, 2):
            assert polytopes_interiors_disjoint(a, b)
            assert ref_polytopes_interiors_disjoint(a, b)
        # every cell overlaps itself; against its copy shifted by one
        # lattice step along the first axis, new and reference agree
        for a in cells:
            assert not polytopes_interiors_disjoint(a, a)
            shifted = [(p[0] + 1,) + tuple(p[1:]) for p in a]
            assert polytopes_interiors_disjoint(a, shifted) == (
                ref_polytopes_interiors_disjoint(a, shifted)
            )
    bad = MixedSubdivision(
        cube_config(2), 1, (MixedCell(((0, 2, 3),)), MixedCell(((0, 1, 3),)))
    )
    a, b = (cell_points(bad.base, c) for c in bad.cells)
    assert polytopes_interiors_disjoint(a, b) and ref_polytopes_interiors_disjoint(a, b)


# -- random pairs ------------------------------------------------------------

SETTINGS = settings(
    max_examples=250,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


def _points(d, n, lo=-2, hi=2):
    return st.lists(
        st.tuples(*[st.integers(lo, hi)] * d), min_size=n, max_size=n, unique=True
    )


@st.composite
def simplex_pairs(draw, full=True):
    """Two simplices in dimension 2..6 sharing 0..d vertices; with
    ``full=False`` either may be lower-dimensional."""
    d = draw(st.integers(2, 6))
    na = d + 1 if full else draw(st.integers(2, d + 1))
    nb = d + 1 if full else draw(st.integers(2, d + 1))
    a = draw(_points(d, na))
    assume(affine_rank(a) == na - 1)
    k = draw(st.integers(0, min(na, nb) - 1))
    shared = draw(st.permutations(a))[:k]
    rest = draw(_points(d, nb - k).filter(lambda r: not set(r) & set(a)))
    b = shared + rest
    assume(affine_rank(b) == nb - 1)
    return a, b


@SETTINGS
@given(simplex_pairs())
def test_random_full_dimensional_pairs_agree(pair):
    check_pair(*pair)


@SETTINGS
@given(simplex_pairs(full=False))
def test_random_lower_dimensional_pairs_agree(pair):
    check_pair(*pair)


@st.composite
def full_simplices(draw):
    d = draw(st.integers(2, 6))
    a = draw(_points(d, d + 1))
    assume(affine_rank(a) == d)
    return a


def _add(p, q, s=1):
    return tuple(x + s * y for x, y in zip(p, q))


@SETTINGS
@given(full_simplices())
def test_constructed_negatives_agree(a):
    d = len(a[0])
    a0, a1, ad = a[0], a[1], a[d]
    # containment: A scaled by 2 about a0 shares a0 and contains A
    big = [a0] + [_add(p, _add(p, a0, -1)) for p in a[1:]]
    assert check_pair(a, big) == (False, False)
    # T-vertex: with A doubled, B sits on the other side of the facet
    # opposite a_d and has a vertex at the midpoint of the edge a0 a1
    a2 = [_add(p, p) for p in a]
    mid = _add(a0, a1)
    apex = _add(_add(mid, mid), a2[d], -1)
    t_vertex = [a2[0], mid] + a2[2:d] + [apex]
    assert check_pair(a2, t_vertex) == (False, True)
    # overlap: the apex over the shared facet moves parallel to the edge
    # a0 a1 and stays on the same side of the facet, so the interiors meet
    moved = a[:d] + [_add(ad, _add(a1, a0, -1))]
    assert check_pair(a, moved) == (False, False)


@SETTINGS
@given(simplex_pairs())
def test_facet_certificate_implies_lp(pair):
    a, b = pair
    ba, bb = barycentric_rows(a), barycentric_rows(b)
    common = set(a) & set(b)
    only_b = [p for p in b if p not in common]
    if only_b and linalg._facet_certifies(ba, a, common, only_b, strict=True):
        assert not linalg._hulls_meet_off(a, b, common)
        assert not linalg._hulls_meet_off(b, a, common)
    if linalg._facet_certifies(ba, a, (), b, strict=False):
        assert not linalg._relative_interiors_meet(a, b)


@st.composite
def polytope_pairs(draw):
    d = draw(st.integers(2, 4))
    a = draw(_points(d, draw(st.integers(d + 1, d + 4))))
    assume(affine_rank(a) == d)
    k = draw(st.integers(0, len(a) - 1))
    b = draw(st.permutations(a))[:k] + draw(
        _points(d, draw(st.integers(1, d + 3))).filter(lambda r: not set(r) & set(a))
    )
    assume(affine_rank(b) == d)
    return a, b


@SETTINGS
@given(polytope_pairs())
def test_random_polytope_pairs_agree(pair):
    a, b = pair
    want = ref_polytopes_interiors_disjoint(a, b)
    assert polytopes_interiors_disjoint(a, b) == want
    assert polytopes_interiors_disjoint(b, a) == want


def test_barycentric_rows_invert_the_vertex_matrix():
    # rows are |D| times the barycentric coordinates: |D| on the own
    # vertex, 0 on the others; None for a degenerate or short point list
    for d, pts in [
        (2, [(0, 0), (3, 1), (1, 2)]),
        (3, [(1, 0, 0), (0, 2, 0), (0, 0, 3), (1, 1, 1)]),
    ]:
        rows = barycentric_rows(pts)
        vol = abs(linalg.det_bareiss([list(p) + [1] for p in pts]))
        for r, row in enumerate(rows):
            for s, p in enumerate(pts):
                value = sum(x * y for x, y in zip(row, p)) + row[d]
                assert value == (vol if r == s else 0)
    assert barycentric_rows([(0, 0), (1, 1), (2, 2)]) is None
    assert barycentric_rows([(0, 0, 0), (1, 0, 0)]) is None
