import hashlib
import math
import random

import pytest

from helpers import lift_provenance, two_triangle_prism

from cubetri.coloring import lift_triangulation, product_blocks, staircase_triangulation
from cubetri.complexes import triangulation_to_json, validate_face_to_face
from cubetri.geometry import ambient_normalized_volume
from cubetri.staircase import (
    LiftedCell,
    certify_cell_regular,
    monotone_paths,
    multi_staircase_count,
    multi_staircases,
    staircase_block_regular,
)


def test_staircase_sizes_small():
    for k in range(0, 4):
        for l in range(0, 4):
            tri = staircase_triangulation(k, l)
            assert tri.size == math.comb(k + l, k)
            assert all(tri.volume_of(s) == 1 for s in tri.simplices)


def test_staircase_k0():
    tri = staircase_triangulation(3, 0)
    assert tri.size == 1


def test_staircase_triangulations_keep_their_order():
    # First 16 hex characters of the SHA-256 of the files of every
    # staircase triangulation for k, l in 0..4, written before the
    # staircase triangulation became a product of ProductCells.
    text = "".join(
        triangulation_to_json(staircase_triangulation(k, l))
        for k in range(5)
        for l in range(5)
    )
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "d468881e27fd3191"


def test_staircase_rejects_negative_dimensions():
    for k, l in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError):
            staircase_triangulation(k, l)


def test_staircase_face_to_face_small():
    for k, l in [(1, 1), (2, 2), (1, 3)]:
        assert validate_face_to_face(staircase_triangulation(k, l)).is_face_to_face


def test_regular_certificate_matches_pairwise():
    # strict regularity certificate is exact; cross-check on small grids
    for rows in range(1, 5):
        for cols in range(1, 5):
            assert staircase_block_regular(rows, cols)


def test_multi_staircase_count_examples():
    assert multi_staircase_count([2, 2], [2, 2]) == 4
    assert multi_staircase_count([2, 1], [3, 2]) == 3
    assert multi_staircase_count([3, 1, 2], [1, 1, 1]) == 1
    # brute-force oracle: per-block path enumeration, multiplied
    rng = random.Random(1)
    for _ in range(10):
        m = rng.randrange(1, 4)
        lvec = [rng.randrange(1, 4) for _ in range(m)]
        kvec = [rng.randrange(1, 4) for _ in range(m)]
        brute = 1
        for l, k in zip(lvec, kvec):
            brute *= len(monotone_paths(l, k))
        assert multi_staircase_count(lvec, kvec) == brute


def test_lift_cell_example():
    # cell {(p1,v1),(p2,v1),(p3,v2)} lifted by (2,1): five vertices
    prism = two_triangle_prism()
    _, prov, _ = lift_provenance(prism, (2, 1))
    cell = prov[0]
    assert cell.tau_index == 0
    assert cell.cols == ((0, 1), (2,))
    assert sum(len(r) * len(c) for r, c in zip(cell.rows, cell.cols)) == 5


def test_lift_cell_type11_has_four_staircases():
    # a type-(1,1) cell of square x segment lifted by (2,2): the four
    # multi-staircases of two 2x2 blocks
    from cubetri.cayley import mixed_to_triangulation
    from cubetri.seeds import square_seed_m2

    t2 = mixed_to_triangulation(square_seed_m2())
    diamond = next(
        t_idx
        for t_idx, blocks in enumerate(product_blocks(t2))
        if all(len(b) == 2 for b in blocks)
    )
    tri, prov, _ = lift_provenance(t2, (2, 2))
    cell = next(c for c in prov if c.tau_index == diamond)
    assert sum(len(r) * len(c) for r, c in zip(cell.rows, cell.cols)) == 8
    staircases = multi_staircases(LiftedCell(cell.rows, cell.cols, 4))
    assert len(staircases) == cell.end - cell.start == 4
    assert staircases == list(tri.simplices[cell.start : cell.end])


def test_identity_lift():
    prism = two_triangle_prism()
    assert set(lift_triangulation(prism, (1, 1)).simplices) == set(prism.simplices)


def test_lift_prism_to_i_x_d2():
    prism = two_triangle_prism()
    lifted = lift_triangulation(prism, (2, 1))
    assert lifted.size == 3
    assert sum(lifted.volume_of(s) for s in lifted.simplices) == 3
    assert ambient_normalized_volume(lifted.config.label) == 3
    assert validate_face_to_face(lifted).is_face_to_face


def test_lift_rejects_zero_entries():
    prism = two_triangle_prism()
    for kvec in ((2, 0), (2,), (1, 1, 1)):
        with pytest.raises(ValueError):
            lift_triangulation(prism, kvec)


def test_lift_size_matches_closed_form_i3d1():
    from cubetri.seeds import cayley_seed

    t0 = cayley_seed("i3d1")
    blocks = product_blocks(t0)
    closed = sum(
        multi_staircase_count([len(b) for b in bl], [2, 1]) for bl in blocks
    )
    lifted = lift_triangulation(t0, (2, 1))
    assert lifted.size == closed
    assert sum(lifted.volume_of(s) for s in lifted.simplices) == 60


def test_lifted_simplex_volume_equals_base_volume():
    # every multi-staircase of a lifted cell has the base cell's volume
    from cubetri.seeds import cayley_seed

    t0 = cayley_seed("i3d1")
    lifted = lift_triangulation(t0, (3, 2))
    blocks = product_blocks(t0)
    pos = 0
    for s, bl in zip(t0.simplices, blocks):
        count = multi_staircase_count([len(b) for b in bl], [3, 2])
        base_vol = t0.volume_of(s)
        for i in range(pos, pos + count):
            assert lifted.volume_of(lifted.simplices[i]) == base_vol
        pos += count
    assert pos == lifted.size


def test_elbow_local_move():
    # removing an elbow of a staircase and inserting the opposite corner
    # yields another staircase; the four corner points satisfy the obvious
    # affine dependency by construction
    paths = set(monotone_paths(3, 3))
    some_path = next(iter(paths))
    for idx in range(1, len(some_path) - 1):
        r0, c0 = some_path[idx - 1]
        r1, c1 = some_path[idx]
        r2, c2 = some_path[idx + 1]
        if (r1 - r0, c1 - c0) != (r2 - r1, c2 - c1):  # an elbow
            other = (r0 + r2 - r1, c0 + c2 - c1)
            swapped = list(some_path)
            swapped[idx] = other
            swapped = tuple(sorted(swapped))
            assert any(tuple(sorted(p)) == swapped for p in paths)


def test_cell_certificates():
    assert certify_cell_regular((2, 2), (2, 2))
    assert certify_cell_regular((4, 1, 1), (3, 3, 2))
