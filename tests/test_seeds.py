import hashlib
import math
from fractions import Fraction

import pytest
from helpers import reference_validate_face_to_face, reference_validate_mixed

from cubetri import linalg, seeds
from cubetri.cayley import (
    MixedCell,
    MixedSubdivision,
    mixed_to_json,
    mixed_to_triangulation,
    validate_mixed,
)
from cubetri.complexes import (
    VerificationFailed,
    validate_face_to_face,
    weighted_efficiency_from,
    weighted_size,
)
from cubetri.geometry import cube_config
from cubetri.seeds import (
    cayley_seed,
    known_constants,
    minimal_cube,
    seed_i3d1,
    seed_i3d2,
    square_family,
    unimodular_cube,
)


def test_unimodular_cube():
    for d in (2, 3, 4):
        tri = unimodular_cube(d)
        assert tri.size == math.factorial(d)
        assert all(tri.volume_of(s) == 1 for s in tri.simplices)
    assert validate_face_to_face(unimodular_cube(3)).is_face_to_face
    with pytest.raises(ValueError):
        unimodular_cube(9)


def test_minimal_cubes():
    assert minimal_cube(1).size == 1
    assert minimal_cube(2).size == 2
    assert minimal_cube(3).size == 5
    for d in (1, 2, 3):
        assert validate_face_to_face(minimal_cube(d)).is_face_to_face
    with pytest.raises(ValueError):
        minimal_cube(4)


def test_square_family_census():
    for m in range(1, 11):
        sub = square_family(m)
        assert weighted_size(mixed_to_triangulation(sub)) == math.ceil(3 * m * m / 4)
        from cubetri.cayley import count_area2_squares

        assert count_area2_squares(sub) == (m * m) // 4


def test_square_family_keeps_its_order():
    # First 16 hex characters of the SHA-256 of the files of
    # square_family(1..7), written before the block lift became a product
    # of ProductCells.
    text = "".join(mixed_to_json(square_family(m)) for m in range(1, 8))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "46df39476e458f38"


def test_square_family_validates_geometrically():
    for m in (2, 3, 4):
        assert validate_mixed(square_family(m)).is_dissection


def test_square_family_weighted_efficiency_m3():
    ws = weighted_size(mixed_to_triangulation(square_family(3)))
    assert ws == 7
    assert abs(weighted_efficiency_from(Fraction(7), 2, 3) - (7 / 9) ** 0.5) < 1e-12


def test_seed_i3d1():
    sub = seed_i3d1()
    dims = sorted(tuple(sorted(c.dims(), reverse=True)) for c in sub.cells)
    assert dims.count((3, 0)) == 10 and dims.count((2, 1)) == 6
    assert weighted_size(mixed_to_triangulation(sub)) == Fraction(14, 3)
    tri = cayley_seed("i3d1")
    assert tri.size == 16 == known_constants(4).phi
    assert weighted_size(tri) == Fraction(14, 3)
    assert round(weighted_efficiency_from(Fraction(14, 3), 3, 2), 4) == 0.8355


def test_seed_i3d1_face_to_face():
    assert reference_validate_face_to_face(cayley_seed("i3d1")).is_face_to_face


def test_seed_i3d2():
    sub = seed_i3d2()
    dims = sorted(tuple(sorted(c.dims(), reverse=True)) for c in sub.cells)
    assert dims.count((2, 1, 0)) == 20
    assert dims.count((3, 0, 0)) == 16
    assert dims.count((1, 1, 1)) == 2
    assert weighted_size(mixed_to_triangulation(sub)) == Fraction(44, 3)
    assert round(weighted_efficiency_from(Fraction(44, 3), 3, 3), 4) == 0.8159
    tri = cayley_seed("i3d2")
    assert tri.size == 38


def test_seed_i3d2_face_to_face():
    assert reference_validate_face_to_face(cayley_seed("i3d2")).is_face_to_face


def test_known_constants():
    kc = known_constants(7)
    assert kc.phi == 1493 and kc.rho == 0.840
    assert abs(kc.hadamard_lower - 0.610) < 5.1e-4
    assert kc.smith_lower == 0.751
    assert known_constants(2).hadamard_lower == pytest.approx(0.877, abs=5.1e-4)
    k1 = known_constants(1)
    assert (k1.phi, k1.rho, k1.hadamard_lower, k1.smith_lower) == (1, 1.0, 1.0, 1.0)
    assert known_constants(8).phi_is_upper_bound
    with pytest.raises(ValueError):
        known_constants(9)


def test_rho_phi_consistency():
    for d in range(1, 8):
        kc = known_constants(d)
        from cubetri.complexes import efficiency

        assert abs(efficiency(kc.phi, d) - kc.rho) < 5.1e-4


def test_failed_seed_verification_raises_on_every_call(monkeypatch):
    from cubetri import seeds

    # the i3d1 cells with a wrong weighted size: verification must fail
    _, cells, census, _ = seeds._SEEDS["i3d1"]
    monkeypatch.setitem(seeds._SEEDS, "broken", (2, cells, census, Fraction(5)))
    for _ in range(2):
        with pytest.raises(VerificationFailed, match="broken: weighted size"):
            cayley_seed("broken")
    with pytest.raises(ValueError, match="unknown seed"):
        cayley_seed("i3d3")
    assert seed_i3d1() is seed_i3d1()


def test_seed_check_runs_no_lp(monkeypatch):
    subs = [square_family(m) for m in range(2, 8)]

    def no_lp(rows, rhs):
        raise AssertionError("an LP was run")

    monkeypatch.setattr(linalg, "feasible", no_lp)
    seeds._seed.cache_clear()
    assert cayley_seed("i3d1").size == 16
    assert cayley_seed("i3d2").size == 38
    for sub in subs:
        assert validate_mixed(sub).is_dissection
    # the patch bites: the pairwise polytope check does run LPs
    with pytest.raises(AssertionError, match="an LP was run"):
        reference_validate_mixed(subs[0])


def test_a_seed_with_one_vertex_changed_fails_on_every_call(monkeypatch):
    # the first corner tetrahedron of i3d1 with vertex 4 moved to 5: the
    # census and the weighted size still hold, the tiling does not
    m, cells, census, weighted = seeds._SEEDS["i3d1"]
    assert cells[0] == ((0,), (0, 1, 2, 4))
    bad = (((0,), (0, 1, 2, 5)),) + cells[1:]
    monkeypatch.setitem(seeds._SEEDS, "broken", (m, bad, census, weighted))
    for _ in range(2):
        with pytest.raises(VerificationFailed, match="broken: invalid subdivision"):
            cayley_seed("broken")
    sub = MixedSubdivision(cube_config(3), m, tuple(map(MixedCell, bad)))
    assert not reference_validate_mixed(sub).is_dissection


def test_a_seed_with_a_cell_off_the_cube_fails_until_restored(monkeypatch):
    # vertex 4 of the first corner tetrahedron of i3d1 moved to 8, not a
    # point of cube(3): the census and the weighted size still hold, but
    # the cell has no Cayley simplex
    m, cells, census, weighted = seeds._SEEDS["i3d1"]
    bad = (((0,), (0, 1, 2, 8)),) + cells[1:]
    seeds._seed.cache_clear()
    with monkeypatch.context() as patch:
        patch.setitem(seeds._SEEDS, "i3d1", (m, bad, census, weighted))
        for _ in range(2):
            with pytest.raises(VerificationFailed, match="i3d1: invalid subdivision"):
                cayley_seed("i3d1")
    assert cayley_seed("i3d1").size == 16
    assert validate_mixed(seed_i3d1()).is_dissection


def test_a_seed_builds_its_cayley_simplices_once(monkeypatch):
    # the certificate checks the Cayley triangulation the cache keeps
    from cubetri import cayley

    calls = []
    build = cayley._cayley_simplex

    def counted(*args):
        calls.append(args[0])
        return build(*args)

    monkeypatch.setattr(cayley, "_cayley_simplex", counted)
    seeds._seed.cache_clear()
    tri = cayley_seed("i3d2")
    assert len(calls) == len(seed_i3d2().cells) == 38
    assert tri == cayley.mixed_to_triangulation(seed_i3d2())
