import math
from fractions import Fraction

import pytest
from helpers import enumerated_expected_size, reference_validate_face_to_face

from cubetri.coloring import (
    Coloring,
    exact_expected_size,
    make_coloring,
    monte_carlo_size,
    product_size,
    size_bound,
    triangulate_product,
)
from cubetri.complexes import weighted_size
from cubetri.geometry import cube_config, product_config, simplex_config
from cubetri.seeds import cayley_seed, minimal_cube, square_seed_m2
from cubetri.verification import StructuredChecker
from cubetri.cayley import mixed_to_triangulation


def test_make_coloring_balanced():
    col = make_coloring(8, 2, "balanced")
    assert col.colors == (0, 1, 0, 1, 0, 1, 0, 1)


def test_make_coloring_random_deterministic():
    a = make_coloring(8, 2, "random", rng_seed=7)
    b = make_coloring(8, 2, "random", rng_seed=7)
    assert a.colors == b.colors
    assert make_coloring(8, 2, "random", rng_seed=8).colors != a.colors


def test_make_coloring_single_color():
    assert make_coloring(4, 1, "balanced").colors == (0, 0, 0, 0)


def test_make_coloring_explicit_validation():
    with pytest.raises(ValueError):
        Coloring((0, 5), 2)


def test_haiman_product_m1():
    # P=I^2, Q=I^2, m=1: 2 * 2 * C(4,2) = 24
    from helpers import cube_as_point_product

    t2 = minimal_cube(2)
    t0 = cube_as_point_product(t2)
    coloring = make_coloring(4, 1, "balanced")
    tri = triangulate_product(t2, t0, coloring)
    assert tri.size == 24
    assert str(tri.config.label) == "cube(4)"


def test_identity_lift_reproduces_t0():
    # P=I^3, Q=I^1, m=2, balanced: the sixteen seed cells verbatim
    t_q = minimal_cube(1)
    t0 = cayley_seed("i3d1")
    coloring = make_coloring(2, 2, "balanced")
    tri = triangulate_product(t_q, t0, coloring)
    assert tri.size == 16
    assert set(tri.simplices) == set(t0.simplices)
    assert str(tri.config.label) == "cube(4)"


def test_product_best_weighted_square_seed():
    # P=I^2, Q=I^2, m=2, seed of weighted size 3: closed form, enumeration,
    # and the validity checker agree
    t_q = minimal_cube(2)
    t0 = mixed_to_triangulation(square_seed_m2())
    assert weighted_size(t0) == 3
    coloring = make_coloring(4, 2, "balanced")
    tri, prov = triangulate_product(t_q, t0, coloring, with_provenance=True)
    assert tri.size == product_size(t_q, t0, coloring)
    assert StructuredChecker(tri, prov, coloring).run().is_face_to_face
    assert reference_validate_face_to_face(tri).is_face_to_face


def test_size_bound_examples():
    assert size_bound(5, Fraction(14, 3), 4, 2, 3) == Fraction(8750, 3)
    t0 = Fraction(7, 2)
    assert size_bound(1, t0, 3, 3, 4) == t0 * (1 + 4) ** 4
    assert size_bound(2, Fraction(3), 3, 2, 2) == Fraction(147, 2)
    with pytest.raises(ValueError):
        size_bound(1, Fraction(1), 2, 3, 3)


def test_exact_expected_size_two_paths_agree():
    for q_dim, seed, m in [(1, "i3d1", 2), (2, "i3d1", 2), (3, "i3d1", 2),
                           (1, "i3d2", 3), (2, "i3d2", 3), (3, "i3d2", 3)]:
        t_q = minimal_cube(q_dim)
        t0 = cayley_seed(seed)
        want = enumerated_expected_size(t_q, t0, m)
        assert exact_expected_size(t_q, t0, m) == want, (q_dim, seed)


def test_expected_size_below_bound():
    t_q = minimal_cube(2)
    t0 = cayley_seed("i3d1")
    e = exact_expected_size(t_q, t0, 2)
    bound = size_bound(t_q.size, weighted_size(t0), 3, 2, 3)
    assert e <= bound


def test_expected_size_m1_deterministic():
    t_q = minimal_cube(2)
    t2 = minimal_cube(2)
    cfg = product_config(cube_config(2), simplex_config(0))
    from cubetri.complexes import Triangulation

    t0 = Triangulation(cfg, t2.simplices)
    e = exact_expected_size(t_q, t0, 1)
    assert e == 2 * 2 * math.comb(4, 2)


def test_monte_carlo_properties():
    t_q = minimal_cube(2)
    t0 = cayley_seed("i3d1")
    stats = monte_carlo_size(t_q, t0, 2, 1, rng_seed=3)
    coloring = make_coloring(4, 2, "random", rng_seed=3)
    assert stats.minimum == stats.maximum == product_size(t_q, t0, coloring)
    stats = monte_carlo_size(t_q, t0, 2, 16, rng_seed=3)
    # all sixteen colorings enumerable: min <= exact expectation <= max
    e = exact_expected_size(t_q, t0, 2)
    assert stats.minimum <= e <= stats.maximum
    again = monte_carlo_size(t_q, t0, 2, 16, rng_seed=3)
    assert (stats.mean, stats.minimum, stats.maximum) == (
        again.mean,
        again.minimum,
        again.maximum,
    )


def test_restricted_colors_size_identity():
    # a coloring that starves one color inside some cells still satisfies
    # the closed form via the face-restriction conventions
    t_q = minimal_cube(2)
    t0 = cayley_seed("i3d2")
    coloring = Coloring((0, 0, 1, 2), 3)
    tri = triangulate_product(t_q, t0, coloring)
    assert tri.size == product_size(t_q, t0, coloring)
    from cubetri.verification import volume_total
    from cubetri.geometry import ambient_normalized_volume

    assert volume_total(tri) == ambient_normalized_volume(tri.config.label)


def test_falling_power_expectation_bound():
    # exact multinomial expectation of the falling-power product stays
    # below (l + n/m)^l for small block data
    import itertools

    def falling(x, r):
        out = 1
        for i in range(r):
            out *= x - i
        return out

    for m, n, lvec in [
        (2, 4, (2, 2)),
        (2, 5, (3, 2)),
        (3, 5, (2, 2, 2)),
        (3, 6, (4, 1, 1)),
    ]:
        l = sum(li - 1 for li in lvec)
        total = Fraction(0)
        for colors in itertools.product(range(m), repeat=n):
            kvec = [colors.count(i) for i in range(m)]
            prod = 1
            for k, li in zip(kvec, lvec):
                prod *= falling(k - 1 + li - 1, li - 1)
            total += prod
        expectation = total / m**n
        bound = (Fraction(n, m) + l) ** l
        assert expectation <= bound


def test_structured_checker_agrees_with_pairwise_on_restricted_case():
    # color 1 never appears in the first triangle of T_Q, so the checker
    # must handle face-restricted cells; cross-validate against the
    # authoritative pairwise oracle
    t_q = minimal_cube(2)
    t0 = cayley_seed("i3d2")
    coloring = Coloring((0, 0, 2, 1), 3)
    tri, prov = triangulate_product(t_q, t0, coloring, with_provenance=True)
    structured = StructuredChecker(tri, prov, coloring).run()
    authoritative = reference_validate_face_to_face(tri)
    assert structured.is_face_to_face == authoritative.is_face_to_face == True
    assert structured.volume_total == authoritative.volume_total


def test_structured_checker_catches_tampering():
    # swap one vertex of one simplex: the checker must flag the cell even
    # though counts and provenance are untouched
    t_q = minimal_cube(2)
    t0 = cayley_seed("i3d1")
    coloring = make_coloring(4, 2, "balanced")
    tri, prov = triangulate_product(t_q, t0, coloring, with_provenance=True)
    simplices = list(tri.simplices)
    victim = list(simplices[5])
    pool = [i for i in range(len(tri.config.points)) if i not in victim]
    victim[0] = pool[0]
    simplices[5] = tuple(sorted(victim))
    from cubetri.complexes import Triangulation

    tampered = Triangulation(tri.config, tuple(simplices))
    report = StructuredChecker(tampered, prov, coloring).run()
    assert not report.is_face_to_face
    assert any(v.kind == "cell-simplices-mismatch" for v in report.violations)
