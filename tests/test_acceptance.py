"""Acceptance suite: one test per exit criterion, exact tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Everything asserted here is computed exactly (integers and
rationals) except the efficiency values, which are floating-point reports
compared at the stated decimal precision.
"""

import math
import random
import time
from fractions import Fraction

from helpers import (
    enumerated_expected_size,
    lift_provenance,
    reference_validate_face_to_face,
    small_default_builds,
    small_default_references,
    two_triangle_prism,
)

from cubetri.cayley import (
    count_area2_squares,
    mixed_to_triangulation,
    validate_mixed,
)
from cubetri.coloring import (
    exact_expected_size,
    lift_triangulation,
    product_blocks,
    size_bound,
    staircase_triangulation,
)
from cubetri.complexes import (
    efficiency,
    weighted_efficiency_from,
    weighted_size,
)
from cubetri.geometry import (
    ambient_normalized_volume,
    cube_config,
    product_config,
    simplex_config,
)
from cubetri.oracle import SearchProblem, min_weighted_size
from cubetri.pipeline import (
    PipelineSpec,
    build_cube_haiman,
    build_cube_recursive,
    report_table,
)
from cubetri.seeds import (
    cayley_seed,
    hadamard_lower,
    known_constants,
    minimal_cube,
    seed_i3d1,
    seed_i3d2,
    square_family,
)
from cubetri.staircase import multi_staircase_count, staircase_block_regular
from cubetri.verification import StructuredChecker


def _announce(name, ok, extra=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{': ' + extra if extra else ''}")
    assert ok, name


def test_criterion_1_staircase_correctness():
    t0 = time.time()
    ok = True
    for k in range(0, 6):
        for l in range(0, 6):
            tri = staircase_triangulation(k, l)
            ok &= tri.size == math.comb(k + l, k)
            ok &= all(tri.volume_of(s) == 1 for s in tri.simplices)
            # exact strict-regularity certificate: each cell is a lower
            # facet of an integer lift, so the family is face-to-face and
            # tiles the product (volume census = count = ambient volume)
            ok &= staircase_block_regular(k + 1, l + 1)
            ok &= tri.size == ambient_normalized_volume(tri.config.label)
            if k + l <= 5:  # cross-check the certificate pairwise
                ok &= reference_validate_face_to_face(tri).is_face_to_face
    _announce(
        "criterion 1: staircase sizes/unimodularity/face-to-face (k,l <= 5)",
        ok,
        f"{time.time() - t0:.1f}s",
    )


def test_criterion_2_square_family():
    t0 = time.time()
    ok = True
    for m in range(2, 11):
        sub = square_family(m)
        ok &= weighted_size(mixed_to_triangulation(sub)) == math.ceil(3 * m * m / 4)
        ok &= count_area2_squares(sub) == (m * m) // 4
    value, witness = min_weighted_size(
        SearchProblem(product_config(cube_config(2), simplex_config(1)))
    )
    ok &= value == 3
    _announce(
        "criterion 2: square family censuses m=2..10; oracle confirms min 3 at m=2",
        ok,
        f"{time.time() - t0:.1f}s",
    )


def test_criterion_3_seed_i3d1():
    t0 = time.time()
    sub = seed_i3d1()
    dims = [tuple(sorted(c.dims(), reverse=True)) for c in sub.cells]
    ok = dims.count((3, 0)) == 10 and dims.count((2, 1)) == 6
    ok &= weighted_size(mixed_to_triangulation(sub)) == Fraction(14, 3)
    tri = cayley_seed("i3d1")
    ok &= tri.size == 16 == known_constants(4).phi
    ok &= reference_validate_face_to_face(tri).is_face_to_face
    ok &= round(weighted_efficiency_from(Fraction(14, 3), 3, 2), 4) == 0.8355
    _announce(
        "criterion 3: i3d1 census (10,6), weighted 14/3, 16 cells, 0.8355",
        ok,
        f"{time.time() - t0:.1f}s",
    )


def test_criterion_4_seed_i3d2():
    t0 = time.time()
    sub = seed_i3d2()
    dims = [tuple(sorted(c.dims(), reverse=True)) for c in sub.cells]
    ok = (
        dims.count((2, 1, 0)) == 20
        and dims.count((3, 0, 0)) == 16
        and dims.count((1, 1, 1)) == 2
    )
    ok &= weighted_size(mixed_to_triangulation(sub)) == Fraction(44, 3)
    report = validate_mixed(sub)  # exact partition of [0,3]^3 + fineness
    ok &= report.is_dissection and report.volume_total == 27 * 6
    ok &= round(weighted_efficiency_from(Fraction(44, 3), 3, 3), 4) == 0.8159
    _announce(
        "criterion 4: i3d2 census (20,16,2), weighted 44/3, partition, 0.8159",
        ok,
        f"{time.time() - t0:.1f}s",
    )


def test_criterion_5_lift_size_identity():
    t0 = time.time()
    rng = random.Random(20250808)
    prism2 = two_triangle_prism()
    prism3 = staircase_triangulation(1, 2)  # segment x triangle
    seeds = [("prism m=2", prism2, 2), ("prism m=3", prism3, 3), ("i3d1", cayley_seed("i3d1"), 2)]
    ok = True
    for case in range(20):
        name, base, m = seeds[rng.randrange(len(seeds))]
        while True:
            kvec = tuple(rng.randrange(1, 5) for _ in range(m))
            if m <= sum(kvec) <= 7:
                break
        lifted = lift_triangulation(base, kvec)
        closed = sum(
            multi_staircase_count([len(b) for b in bl], kvec)
            for bl in product_blocks(base)
        )
        ok &= lifted.size == closed
        tri, prov, coloring = lift_provenance(base, kvec)
        ok &= set(tri.simplices) == set(lifted.simplices)
        ok &= StructuredChecker(tri, prov, coloring).run().is_face_to_face
    _announce(
        "criterion 5: 20 random lifts, enumerated = closed form, face-to-face",
        ok,
        f"{time.time() - t0:.1f}s",
    )


def test_criterion_6_product_bound():
    t0 = time.time()
    t_q = minimal_cube(3)
    seed = cayley_seed("i3d1")
    bound = size_bound(5, Fraction(14, 3), 4, 2, 3)
    ok = bound == Fraction(8750, 3)
    e_enum = enumerated_expected_size(t_q, seed, 2)  # 2^8 colorings
    e_mult = exact_expected_size(t_q, seed, 2)
    ok &= e_enum == e_mult
    ok &= e_enum <= bound
    _announce(
        "criterion 6: exact expected size over 2^8 colorings <= 8750/3",
        ok,
        f"E = {e_enum} <= {bound}; {time.time() - t0:.1f}s",
    )


def test_criterion_7_m1_reduction():
    t0 = time.time()
    t2, t3 = minimal_cube(2), minimal_cube(3)
    h4 = build_cube_haiman(t2, t2)
    h6 = build_cube_haiman(t3, t3)
    ok = h4.size == 24 and h6.size == 500
    _announce(
        "criterion 7: m=1 reduction gives Haiman sizes 24 and 500",
        ok,
        f"{time.time() - t0:.1f}s",
    )


def test_criterion_8_pipeline_validity():
    t0 = time.time()
    ok = True
    details = []
    small = small_default_builds()
    for d in range(4, 11):
        spec = PipelineSpec(dim=d, samples=3, rng_seed=1)
        tri, rep = small[d] if d in small else build_cube_recursive(spec)
        for st in rep.steps:
            ok &= st.bound_ok and st.volume_ok and st.dissection_certified
            if st.dim_to <= 9:
                ok &= st.face_to_face is True
        # authoritative pairwise oracle on the materialized small outputs
        if d <= 6 and tri is not None:
            ok &= small_default_references()[d].is_face_to_face
        ok &= rep.ok
        details.append(f"d{d}:{rep.sizes[d]}")
    _announce(
        "criterion 8: pipeline d=4..10 valid (f2f <= 9, dissection 10, bounds)",
        ok,
        " ".join(details) + f"; {time.time() - t0:.1f}s",
    )


def test_criterion_9_constants():
    t0 = time.time()
    ok = True
    for d in range(1, 8):
        kc = known_constants(d)
        ok &= abs(efficiency(kc.phi, d) - kc.rho) < 5.1e-4
    for d in range(1, 9):
        ok &= abs(hadamard_lower(d) - known_constants(d).hadamard_lower) == 0
    table_hadamard = [1.0, 0.877, 0.794, 0.731, 0.683, 0.643, 0.610, 0.581]
    for d, expected in enumerate(table_hadamard, start=1):
        ok &= abs(hadamard_lower(d) - expected) < 5.1e-4
    csv_text = report_table(8)
    ok &= "0.8159" in csv_text
    _announce(
        "criterion 9: efficiency/Hadamard rows to 3 decimals; 0.8159 in report",
        ok,
        f"{time.time() - t0:.1f}s",
    )
