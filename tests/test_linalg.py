import hashlib
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from helpers import path_edges
from hypothesis import given, settings
from hypothesis import strategies as st

from cubetri.complexes import signed_volumes
from cubetri.linalg import (
    batch_abs_det,
    batch_det,
    batch_last_det,
    det_bareiss,
    exact_dtype,
    feasible,
    rank_int,
    simplices_face_to_face,
    simplices_interiors_disjoint,
)
from cubetri.pipeline import PipelineSpec, build_cube_recursive


def _det_fraction(rows):
    # plain Gaussian elimination over Fractions, as an independent reference
    n = len(rows)
    m = [[Fraction(v) for v in r] for r in rows]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def _feasible_fraction(rows, rhs):
    m = len(rows)
    n = len(rows[0])
    tab = []
    for i in range(m):
        r = [Fraction(v) for v in rows[i]] + [Fraction(rhs[i])]
        if r[-1] < 0:
            r = [-v for v in r]
        tab.append(r)
    basis = list(range(n, n + m))
    obj = [sum(tab[i][j] for i in range(m)) for j in range(n + 1)]
    while True:
        enter = next((j for j in range(n) if obj[j] > 0), -1)
        if enter < 0:
            return obj[n] == 0
        best = None
        leave = -1
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][n] / tab[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        basis[leave] = enter
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [a - f * b for a, b in zip(obj, tab[leave])]


def test_det_matches_fraction_reference():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randrange(1, 6)
        rows = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        assert det_bareiss(rows) == _det_fraction(rows)


def test_batch_det_matches_scalar():
    rng = random.Random(8)
    mats = np.array(
        [
            [[rng.randrange(-3, 4) for _ in range(6)] for _ in range(6)]
            for _ in range(200)
        ],
        dtype=np.int64,
    )
    got = batch_abs_det(mats)
    for m, v in zip(mats, got):
        assert abs(det_bareiss(m.tolist())) == int(v)


def test_batch_det_overflow_guard_matches_scalar():
    # The vectorized step multiplies two minors before dividing, so the
    # guard must bound their product, not a single minor: these batches
    # used to pass the guard and come back wrong.
    rng = np.random.default_rng(0)
    for n, c in ((8, 20), (6, 200)):
        mats = rng.integers(-c, c + 1, size=(2000, n, n))
        got = batch_abs_det(mats)
        assert [int(v) for v in got] == [abs(det_bareiss(m.tolist())) for m in mats]


def test_batch_det_pipeline_range_stays_int64_without_warnings():
    # {-1, 0, 1} entries up to 10x10 stay on the int64 path, and matrices
    # that die early (a zero column) raise no division-by-zero warning.
    rng = np.random.default_rng(1)
    mats = rng.integers(-1, 2, size=(3000, 10, 10))
    mats[::7, :, rng.integers(0, 10)] = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = batch_abs_det(mats)
    assert got.dtype == np.int64
    assert (got == 0).any()
    assert [int(v) for v in got] == [abs(det_bareiss(m.tolist())) for m in mats]


def test_batch_det_of_empty_matrices_is_one():
    # the empty product, as for det_bareiss([])
    assert det_bareiss([]) == 1
    assert batch_abs_det(np.zeros((3, 0, 0), dtype=np.int64)).tolist() == [1, 1, 1]


def test_exact_dtype_at_its_bound():
    # 2 (c^2 (n-1))^(n-1) < 2^(bits-1): for n = 2 that is 2 c^2 < 2^31 up
    # to c = 2^15 - 1, and 2 c^2 < 2^63 up to c = 2^31 - 1.
    assert exact_dtype(2**15 - 1, 2) is np.int32
    assert exact_dtype(2**15, 2) is np.int64
    assert exact_dtype(2**31 - 1, 2) is np.int64
    assert exact_dtype(2**31, 2) is None
    # n = 3: 8 c^4 < 2^31 up to c = 2^7 - 1, and < 2^63 up to c = 2^15 - 1
    assert exact_dtype(2**7 - 1, 3) is np.int32
    assert exact_dtype(2**7, 3) is np.int64
    assert exact_dtype(2**15 - 1, 3) is np.int64
    assert exact_dtype(2**15, 3) is None
    # n = 10, the d=10 census: 2 * 9^9 < 2^31 at c = 1, and c = 2 is past it
    assert exact_dtype(1, 10) is np.int32
    assert exact_dtype(2, 10) is np.int64
    # nothing is eliminated for n <= 1, so only the entries must fit
    assert exact_dtype(2**31 - 1, 1) is np.int32
    assert exact_dtype(2**31, 1) is np.int64
    assert exact_dtype(2**63, 1) is None
    assert exact_dtype(0, 0) is np.int32


def test_batch_det_is_exact_on_either_side_of_each_bound():
    # [[c, c], [-c, c]] reaches the bound 2 c^2 in its one elimination
    # step: at c = 2^15 that is 2^31, one past int32, and at c = 2^31 it
    # is 2^63, one past int64.
    for c in (2**15 - 1, 2**15, 2**31 - 1):
        got = batch_det(np.array([[[c, c], [-c, c]], [[c, -c], [c, c]]]))
        assert got.dtype == np.int64
        assert got.tolist() == [2 * c * c] * 2
    got = batch_det(np.array([[[2**31, 2**31], [-(2**31), 2**31]]]))
    assert got.dtype == object and got.tolist() == [2**63]
    assert batch_det(np.array([[[2**31]], [[-(2**31)]]])).tolist() == [2**31, -(2**31)]


def test_batch_det_takes_entries_beyond_int64_to_python_ints():
    got = batch_det(np.array([[[2**70]]], dtype=object))
    assert got.dtype == object and got.tolist() == [2**70]
    got = batch_det([[[2**70, 1], [2**63, 2]], [[1, 0], [0, 1]]])
    assert got.dtype == object and got.tolist() == [2**71 - 2**63, 1]
    # an object array whose entries fit int64 takes the int64 paths
    got = batch_det(np.array([[[3, 1], [1, 2]]], dtype=object))
    assert got.dtype == np.int64 and got.tolist() == [5]


def test_batch_det_matches_scalar_at_each_path_edge():
    # Random matrices whose largest entry is the last c of each path and
    # the first c past it: int32, int64, then Python ints.
    rng = np.random.default_rng(5)
    for n in (3, 4, 6):
        for c in path_edges(n):
            mats = rng.integers(-c, c + 1, size=(300, n, n))
            mats[:, 0, 0] = c  # the guard sees exactly c
            mats[::5, :, n - 1] = 0  # and some matrices die
            got = batch_det(mats)
            assert [int(v) for v in got] == [det_bareiss(m.tolist()) for m in mats]


def _big_matrices(rng, n, count):
    """``count`` random n x n matrices with entries of up to 200 bits, about
    a third of them zero, so that pivots vanish, rows swap and some
    matrices are singular; a few have a repeated row."""
    mats = []
    for _ in range(count):
        m = [[rng.getrandbits(rng.randint(1, 200)) for _ in range(n)] for _ in range(n)]
        for row in m:
            for j in range(n):
                row[j] *= 0 if rng.random() < 0.35 else rng.choice((-1, 1))
        if n > 1 and rng.random() < 0.1:
            m[-1] = list(m[0])
        mats.append(m)
    return mats


def test_the_python_int_path_matches_the_scalar_reference():
    rng = random.Random(14)
    swapped = singular = 0
    for batch in range(60):
        n = 1 + batch % 6
        mats = _big_matrices(rng, n, 20)
        want = [det_bareiss(m) for m in mats]
        swapped += sum(m[0][0] == 0 and w != 0 for m, w in zip(mats, want))
        singular += want.count(0)
        got = batch_det(mats)
        assert got.dtype == object and got.tolist() == want
        last = np.ascontiguousarray(np.array(mats, dtype=object).transpose(1, 2, 0))
        assert batch_last_det(last).tolist() == want
    assert swapped > 20 and singular > 20
    # A census whose span only Python ints can hold: small simplices among
    # points that include one far point, which sets the span.
    for d in (2, 3, 4):
        pts = [tuple(rng.randint(0, 2) for _ in range(d)) for _ in range(12)]
        pts.append((2**200,) * d)
        # the origin, then e_1 .. e_(d-1): with the far point a simplex of
        # volume 2^200
        pts += [tuple(int(i == k) for i in range(d)) for k in range(-1, d - 1)]
        assert exact_dtype(2**200, d) is None
        rows = [rng.sample(range(12), d + 1) for _ in range(200)]
        want = [
            det_bareiss([[a - b for a, b in zip(pts[v], pts[s[0]])] for v in s[1:]])
            for s in rows
        ]
        assert 0 in want and signed_volumes(pts, rows).tolist() == want
        with pytest.raises(OverflowError, match="^a signed volume int64 cannot hold$"):
            signed_volumes(pts, [[*range(13, 13 + d), 12]])
    # int64 coordinates whose range 2^63 int64 cannot hold: the shift to a
    # zero minimum is taken in Python ints too
    pts = [(-(2**62), 0), (2**62, 0), (0, 0), (0, 1)]
    assert signed_volumes(pts, [(2, 3, 1)]).tolist() == [-(2**62)]


def _bareiss_trace(rows):
    """Steps of the scalar elimination that swap rows, and the step at which
    the matrix dies (no nonzero pivot), or None."""
    m = [list(r) for r in rows]
    n = len(m)
    swaps, prev = [], 1
    for k in range(n - 1):
        if m[k][k] == 0:
            i = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if i is None:
                return swaps, k
            m[k], m[i] = m[i], m[k]
            swaps.append(k)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return swaps, None


def _assert_exact(mats):
    mats = np.asarray(mats)
    got = batch_det(mats)
    assert got.dtype == np.int64
    assert [int(v) for v in got] == [det_bareiss(m.tolist()) for m in mats]


def test_batch_det_swaps_only_the_matrices_that_need_it():
    # Row permutations of upper-triangular matrices: whether a matrix needs a
    # swap at step k depends on its permutation, so every step swaps some
    # matrices of the batch and not others, with either sign.
    rng = np.random.default_rng(2)
    n, count = 7, 400
    upper = np.triu(rng.integers(-3, 4, size=(count, n, n)), 1)
    upper[:, np.arange(n), np.arange(n)] = rng.choice([-2, -1, 1, 2], size=(count, n))
    mats = np.array([u[rng.permutation(n)] for u in upper])
    swapped = [set(_bareiss_trace(m.tolist())[0]) for m in mats]
    for k in range(n - 1):
        assert 0 < sum(k in s for s in swapped) < count, k
    _assert_exact(mats)
    assert {int(v) > 0 for v in batch_det(mats)} == {True, False}


def test_batch_det_dead_matrices_among_live_ones():
    # Singular matrices that die at every step (a zero column k below a
    # zero pivot), mixed in with live ones; no warning, exact zeros.
    rng = np.random.default_rng(3)
    n = 6
    mats = rng.integers(-2, 3, size=(300, n, n))
    for b in range(0, 300, 3):
        mats[b, :, (b // 3) % n] = 0
    deaths = {_bareiss_trace(m.tolist())[1] for m in mats}
    assert set(range(n - 1)) <= deaths and None in deaths
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_exact(mats)
    assert (batch_det(mats)[::3] == 0).all()


def test_batch_det_of_non_contiguous_inputs():
    rng = np.random.default_rng(4)
    big = rng.integers(-1, 2, size=(64, 9, 9))
    for view in (big[::3, 1:, 1:], big[5:40, ::2, ::2], big.transpose(0, 2, 1)):
        assert not view.flags.c_contiguous
        _assert_exact(view)
    # A batch-last array seen as (N, n, n): transposing it back is
    # contiguous, and the caller's array must come back unchanged.
    last = np.ascontiguousarray(big[:, :8, :8].transpose(1, 2, 0))
    before = last.copy()
    _assert_exact(last.transpose(2, 0, 1))
    assert (last == before).all()


def test_batch_det_of_one_matrix_and_of_1x1_matrices():
    _assert_exact(np.array([[[0, 1, 0], [0, 0, 1], [1, 0, 0]]]))
    _assert_exact(np.array([[[0, 1], [1, 0]]]))
    assert batch_det(np.array([[[0, 1], [1, 0]]])).tolist() == [-1]
    assert batch_det(np.array([[[3]], [[-2]], [[0]]])).tolist() == [3, -2, 0]
    assert batch_det(np.zeros((1, 0, 0), dtype=np.int64)).tolist() == [1]


def _kernel(mats, dtype):
    """batch_last_det of (N, n, n) matrices in ``dtype``, as Python ints,
    with every warning an error."""
    last = np.ascontiguousarray(np.asarray(mats).transpose(1, 2, 0)).astype(dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return batch_last_det(last).tolist()


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 10),
    wide=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.sampled_from([0.0, 0.3, 0.6]),
)
def test_batch_last_det_is_exact_at_the_largest_admitted_entry(n, wide, seed, zeros):
    # At the last c exact_dtype sends to int32 (or to int64), the kernel in
    # that dtype equals the scalar reference. Half the batch has every
    # entry at +-c, the size Hadamard's bound is reached at, and zeros make
    # pivots vanish, so rows swap and some matrices die.
    c = path_edges(n)[2 if wide else 0]
    dtype = np.int64 if wide else np.int32
    assert exact_dtype(c, n) is dtype
    rng = np.random.default_rng(seed)
    mats = rng.integers(-c, c, size=(16, n, n), endpoint=True)
    mats[:8] = c * rng.choice([-1, 1], size=(8, n, n))
    mats[rng.random(mats.shape) < zeros] = 0
    assert _kernel(mats, dtype) == [det_bareiss(m.tolist()) for m in mats]


def test_batch_last_det_with_a_zero_pivot_at_every_step():
    # Upper-triangular U with its rows cycled to U_1 .. U_(n-1), U_0: at
    # step k the diagonal holds a zero, and the only nonzero entry below it
    # is in the last row, so every step swaps; the determinant is
    # (-1)^(n-1) times U's diagonal product. The uncycled U, mixed in,
    # never swaps. Pivots are even, negative and not units.
    rng = np.random.default_rng(6)
    for n in (2, 5, 8):
        upper = np.triu(rng.integers(-3, 4, size=(60, n, n)), 1)
        diag = rng.choice([-4, -2, -1, 1, 2, 3], size=(60, n))
        upper[:, range(n), range(n)] = diag
        cycled = upper[:, np.roll(np.arange(n), -1)]
        for m in cycled:
            assert _bareiss_trace(m.tolist()) == (list(range(n - 1)), None)
        mats = np.concatenate([cycled, upper])
        want = [(-1) ** (n - 1) * int(p) for p in diag.prod(axis=1)]
        want += [int(p) for p in diag.prod(axis=1)]
        assert [det_bareiss(m.tolist()) for m in mats] == want
        for dtype in {exact_dtype(4, n), np.int64}:
            assert _kernel(mats, dtype) == want


def test_batch_last_det_divides_by_even_and_negative_pivots():
    # L U with L unit lower triangular swaps no row, and its Bareiss pivots
    # are its leading principal minors, the prefix products of U's
    # diagonal: here even, negative and not units, so each division shifts
    # out a power of two and multiplies by an odd inverse.
    rng = np.random.default_rng(7)
    n = 5
    lower = np.tril(rng.integers(-1, 2, size=(300, n, n)), -1) + np.eye(n, dtype=int)
    upper = np.triu(rng.integers(-1, 2, size=(300, n, n)), 1)
    diag = rng.choice([-4, -3, -2, 2, 3, 6], size=(300, n))
    upper[:, range(n), range(n)] = diag
    mats = lower @ upper
    want = [int(p) for p in diag.prod(axis=1)]
    assert [det_bareiss(m.tolist()) for m in mats] == want
    dtype = exact_dtype(int(np.abs(mats).max()), n)
    assert dtype is not None
    for dtype in {dtype, np.int64}:
        assert _kernel(mats, dtype) == want


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_batch_last_det_dead_matrices_among_live_ones(dtype):
    # A zero column kills a matrix at some step; every step sees deaths,
    # next to live matrices that swap rows, in both integer dtypes.
    rng = np.random.default_rng(8)
    n = 7
    mats = rng.integers(-1, 2, size=(420, n, n))
    for b in range(0, 420, 2):
        mats[b, :, (b // 2) % n] = 0
    trace = [_bareiss_trace(m.tolist()) for m in mats]
    assert set(range(n - 1)) <= {death for _, death in trace}
    assert any(swaps and death is None for swaps, death in trace)
    assert exact_dtype(1, n) is np.int32
    got = _kernel(mats, dtype)
    assert got == [det_bareiss(m.tolist()) for m in mats]
    assert got[::2] == [0] * 210


# SHA-256 of the little-endian int64 signed volumes of the default d=7
# output (samples=3, rng_seed=1), in row order: pins each sign, not only
# each |det|.
D7_SIGNED_SHA256 = "ad8647c547f7cbd846405a76bd604c9e294dbb9e71c4867837279afd102f0153"


def test_census_signs_of_the_d7_output_are_pinned():
    tri = build_cube_recursive(PipelineSpec(dim=7, samples=3, rng_seed=1))[0]
    vols = signed_volumes(tri.config.points, tri.rows)
    assert len(vols) == 2155 and (vols < 0).any() and (vols > 0).any()
    digest = hashlib.sha256(vols.astype("<i8").tobytes()).hexdigest()
    assert digest == D7_SIGNED_SHA256


def test_rank_small_cases():
    assert rank_int([[1, 2], [2, 4]]) == 1
    assert rank_int([[1, 0], [0, 1]]) == 2
    assert rank_int([[0, 0]]) == 0


def test_feasible_matches_fraction_reference():
    rng = random.Random(99)
    for _ in range(300):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 7)
        rows = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randrange(-6, 7) for _ in range(m)]
        assert feasible(rows, rhs) == _feasible_fraction(rows, rhs)


def test_pair_predicates_basic():
    a = [(0, 0), (1, 0), (0, 1)]
    b = [(1, 1), (1, 0), (0, 1)]  # shares the hypotenuse
    assert simplices_interiors_disjoint(a, b)
    assert simplices_face_to_face(a, b)
    c = [(0, 0), (2, 0), (0, 2)]  # contains a's interior
    assert not simplices_interiors_disjoint(a, c)
    assert not simplices_face_to_face(a, c)
    far = [(5, 5), (6, 5), (5, 6)]
    assert simplices_interiors_disjoint(a, far)
    assert simplices_face_to_face(a, far)


def test_batch_det_rejects_matrices_that_are_not_square():
    with pytest.raises(ValueError, match="not square"):
        batch_det(np.zeros((2, 2, 3), dtype=np.int64))
