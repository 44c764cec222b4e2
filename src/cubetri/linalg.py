"""Exact integer linear algebra kernels and pair predicates.

All geometric predicates in this package reduce to the routines here:
fraction-free determinants and ranks over the integers, a batched signed
integer determinant for the volume census and ridge orientations, and a
phase-1 simplex solver with integer pivoting used as an exact linear
feasibility oracle.

The batched determinant works on a batch-last (n, n, N) array
(:func:`batch_last_det`). Orders up to ``MINOR_MAX_N`` take a Laplace
expansion along the rows, with no pivot and no division, each level of
minors in the narrowest of int8..int64 that Hadamard's bound proves exact
for it, else in Python ints; larger ones take a fraction-free elimination
in one such dtype, whose exact divisions are a shift and a multiplication
by an inverse modulo 2^b, not ``//``. One rule, proved at
:func:`exact_dtype`, picks every width. The scalar :func:`det_bareiss`
is the tests' reference for both.

The pair predicates (face to face, disjoint interiors of simplices or of
polytopes), and with them the LP and the barycentric rows, serve only the
pairwise reference scans of :mod:`complexes`. They are certificate-first.
For two full-dimensional simplices, the integer barycentric rows of each
(:func:`barycentric_rows`, computed once per simplex by the caller) often
name a facet hyperplane that separates the pair, which integer dot
products alone show. Every pair the certificate does not settle goes to
one LP formulation: convex-combination (barycentric) feasibility with
integer rows, d+1 or d+2 of them, and one column per vertex of either
side. No floating point is ever consulted for a decision. Only the tests
and the benchmark's tracer call the polytope predicate.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import combinations
from operator import index, mul

import numpy as np

# batch_last_det expands by minors up to this order, and eliminates beyond.
# On cube censuses (2 cores, each level in its own dtype) the expansion took
# 0.34 against 0.89 ms at n = 7 (2,155 matrices) and 6.0-11.0 against
# 13.0-25.1 ms for the int32 elimination at n = 8 (16,282); at n = 9 it
# took 6.9-7.3 against 7.9 ms a chunk of 8,192, too close to switch.
MINOR_MAX_N = 8
# Matrices per pass of the expansion: at n = 8 a pass peaks under 1 MB,
# less than the elimination of a census chunk; 2,048 timed within noise.
MINOR_SLICE = 3072


def det_bareiss(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination).

    Fraction-free: every division is exact, intermediate entries are minors
    of the input, which keeps growth polynomial in the entry size.
    """
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def rank_int(rows: list[list[int]]) -> int:
    """Exact rank of an integer matrix via fraction-free elimination."""
    if not rows:
        return 0
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(row, nrows):
            if m[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        piv = m[row][col]
        for i in range(row + 1, nrows):
            if m[i][col] != 0:
                f = m[i][col]
                m[i] = [m[i][j] * piv - f * m[row][j] for j in range(ncols)]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def exact_dtype(c: int, n: int):
    """The dtype of the (n, n, N) block that :func:`batch_last_det` takes
    for n x n matrices with integer entries |a| <= c, its level 1; each
    level r (1..n) of its work is held in the narrowest of int8, int16,
    int32 and int64 that holds every value formed there, or ``object``
    (Python ints) when none does (:func:`_level_dtypes`). A signed type
    of b bits holds every value below a bound under 2^(b-1), compared as
    the bound's square, an integer.

    Proof. Hadamard's inequality makes a minor of order j at most
    H(j) = (c^2 j)^(j/2), nondecreasing in j for c >= 1 (for c = 0 every
    value is 0). The expansion (:func:`_expand_minors`, n <= MINOR_MAX_N)
    holds the entries at level 1, at most c. Level r >= 2 forms products
    a M of an entry and a minor of order r-1, and sums of at most r of
    them, the last a minor of order r: every value is at most r c H(r-1),
    which grows with r and is at least c, so the levels only widen. At
    level r = n the sums, at most n c H(n-1) too, are taken in int64 or
    Python ints.

    Beyond, the elimination (:func:`_eliminate`) runs, every level in one
    dtype. By Sylvester's identity, each entry that Bareiss elimination
    (*Math. Comp.* 22, 1968) holds after step k, row swaps included, is a
    minor of order k+2 of the input, up to sign. Step k forms
    a_kk a_ij - a_ik a_kj from entries of step k-1, two products of minors
    of order k+1 <= n-1, then divides it exactly by a nonzero a_kk of step
    k-1, which makes it no larger. So every value formed is at most
    2 H(n-1)^2 = 2 (c^2 (n-1))^(n-1), at least c for n >= 2. Its exact
    division (:func:`_divide_exactly`) shifts the dividend right by the
    divisor's trailing zero bits, exact and no larger, then multiplies by
    an inverse modulo 2^b with wrap-around: that is the quotient modulo
    2^b, which the bound puts in (-2^(b-1), 2^(b-1)), so the quotient
    itself. Below n = 2 neither kernel forms more than the entries.

    For n >= 2 and r <= n, r c H(r-1) <= n c H(n-1) <= 2 (c^2 (n-1))^(n-1),
    so the elimination's dtype is at least as wide as every level of the
    expansion: for c >= 1 the last is n <= 2 c^(n-2) (n-1)^((n-1)/2), and
    2 (n-1)^((n-1)/2) is 2 at n = 2 and at least 2 (n-1) >= n beyond.
    """
    return _level_dtypes(c, n, n <= MINOR_MAX_N)[0]


@lru_cache(maxsize=1024)
def _level_dtypes(c: int, n: int, expand: bool) -> tuple:
    """The dtypes of levels 1..max(n, 1) of :func:`batch_last_det`'s work,
    for the expansion or for the elimination, by the bounds proved in
    :func:`exact_dtype`; computed once per (c, n)."""
    x = c * c
    if expand:
        squares = [x] + [r * r * x * (x * (r - 1)) ** (r - 1) for r in range(2, n + 1)]
    else:
        squares = [x if n < 2 else 4 * (x * (n - 1)) ** (2 * n - 2)] * max(n, 1)
    return tuple(_narrowest(square) for square in squares)


def _narrowest(square: int):
    """The narrowest of int8..int64 that holds every integer whose square
    is at most ``square``, else ``object``."""
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if square < 4 ** (np.iinfo(dtype).bits - 1):
            return dtype
    return object


def batch_last_det(m: np.ndarray, c: int) -> np.ndarray:
    """Signed determinants of the matrices m[:, :, b] of a C-contiguous
    (n, n, N) integer array whose entries are at most c in absolute value,
    as int64, or as Python ints (``object``) when :func:`_level_dtypes` puts
    the last level there or m is an ``object`` array; a 0x0 matrix has
    determinant 1. Exact when m's dtype is ``object`` or at least as wide
    as ``exact_dtype(c, n)``. May overwrite m. Orders up to
    ``MINOR_MAX_N`` take :func:`_expand_minors`, ``MINOR_SLICE`` matrices
    a pass, each level in the dtype :func:`_level_dtypes` gives it;
    larger ones take :func:`_eliminate` in m's dtype.
    """
    n, _, N = m.shape
    if not m.flags.c_contiguous:
        raise ValueError("batch_last_det needs a C-contiguous array")
    if n == 0:
        return np.ones(N, dtype=np.int64)
    if n > MINOR_MAX_N:
        return _eliminate(m)
    dtypes = _level_dtypes(c, n, True)
    wide = m.dtype == object or dtypes[-1] is object
    out = np.empty(N, dtype=object if wide else np.int64)
    for start in range(0, N, MINOR_SLICE):
        stop = start + MINOR_SLICE
        out[start:stop] = _expand_minors(m[:, :, start:stop], dtypes)
    return out


@cache
def _minor_terms(n: int) -> list:
    """Per level r = 2..n-1 of :func:`_expand_minors`, one
    (cols, subs, positive) per term t, a positive one first: for the
    subsets S of size r in lexicographic order, s_t and the position of
    S minus s_t in level r-1."""
    levels = []
    position = {(j,): j for j in range(n)}
    for r in range(2, n):
        subsets = list(combinations(range(n), r))
        terms = [
            (
                np.array([s[t] for s in subsets]),
                np.array([position[s[:t] + s[t + 1 :]] for s in subsets]),
                (r - 1 + t) % 2 == 0,
            )
            for t in range(r)
        ]
        levels.append(sorted(terms, key=lambda term: not term[2]))
        position = {s: i for i, s in enumerate(subsets)}
    return levels


def _expand_minors(m: np.ndarray, dtypes: tuple) -> np.ndarray:
    """Determinants of the matrices m[:, :, b] of an (n, n, N) array,
    n >= 1, by Laplace expansion along the rows, with no pivot and no
    division. Level r holds the r x r minors of the first r rows in
    dtypes[r-1], one row of a (C(n, r), N) array per column subset
    S = {s_0 < ... < s_(r-1)}:
    M_r(S) = sum_t (-1)^(r-1+t) a[r-1, s_t] M_(r-1)(S minus s_t),
    accumulated term by term in four numpy calls. Row r-1 of m and level
    r-1 are cast to dtypes[r-1] only where their dtype differs. Level n
    forms its n products in dtypes[n-1] and sums them in int64 (or Python
    ints); S minus t is row n-1-t of level n-1.
    """
    n = len(m)
    if n == 1:
        return m[0, 0]
    minors = m[0]
    for row, terms, dtype in zip(m[1:-1], _minor_terms(n), dtypes[1:-1]):
        row, minors = _cast(row, dtype), _cast(minors, dtype)
        (cols, subs, _), *rest = terms
        out = row.take(cols, axis=0)
        out *= minors.take(subs, axis=0)
        for cols, subs, positive in rest:
            term = row.take(cols, axis=0)
            term *= minors.take(subs, axis=0)
            if positive:
                out += term
            else:
                out -= term
        minors = out
    products = _cast(m[-1], dtypes[-1]) * _cast(minors[::-1], dtypes[-1])
    first = (n - 1) % 2  # the first positive term
    return products[first::2].sum(axis=0) - products[1 - first :: 2].sum(axis=0)


def _cast(a: np.ndarray, dtype) -> np.ndarray:
    """``a`` in ``dtype``: itself when it is already, else a copy."""
    return a if a.dtype == dtype else a.astype(dtype)


def _eliminate(m: np.ndarray) -> np.ndarray:
    """Signed determinants of the matrices m[:, :, b] of a C-contiguous
    (n, n, N) integer array, n >= 1, by vectorized Bareiss elimination in
    m's dtype, as :func:`batch_last_det` returns them. Overwrites m. Each
    row swap flips the sign of its matrix.

    With the batch index last, each step works on contiguous rows of N
    entries. Step k scans column k below the diagonal of the whole batch in
    one pass: weighting its nonzero entries by n - row and taking the
    maximum over the rows names each matrix's first nonzero row, the one a
    zero pivot swaps with, or none, for a matrix that is singular. Only
    columns k..n-1 of the two rows are swapped, since the columns left of
    k are never read again. The trailing submatrix is then updated in place:
    scaled by the pivot, less the outer product of column k and row k,
    formed one row at a time in one (n-1, N) buffer, and divided exactly by
    the previous pivot (:func:`_divide_exactly`).
    """
    n, _, N = m.shape
    flat = m.reshape(-1)
    alive = np.ones(N, dtype=bool)
    sign = np.ones(N, dtype=np.int64)
    prev = np.ones(N, dtype=m.dtype)
    buf = np.empty((n - 1, N), dtype=m.dtype)  # one row of the outer product
    # weights[k:] are n - row for the rows k+1..n-1
    weights = np.arange(n - 1, 0, -1, dtype=np.min_scalar_type(n))[:, None]
    for k in range(n - 1):
        need = alive & (m[k, k] == 0)
        if need.any():
            # The largest weight on a nonzero of column k below the pivot:
            # the first nonzero row is n - key, and none where key = 0.
            key = ((m[k + 1 :, k] != 0) * weights[k:]).max(axis=0)
            swap = need & (key != 0)
            dead = need ^ swap
            if dead.any():
                # A dead matrix is zeroed and pivots on 1 from here on, so
                # its entries, its determinant included, stay zero and no
                # later step divides by zero.
                alive &= ~dead
                m[k:, k:, dead] = 0
            good = np.flatnonzero(swap)
            # Flat positions of columns k.. of row k and of the swap row, one
            # column per matrix to swap: entry (r, c) of matrix b sits at
            # (r n + c) N + b.
            at_k = np.arange(k * (n + 1) * N, (k + 1) * n * N, N)[:, None] + good
            at_s = at_k + (n - k - key[good].astype(np.intp)) * (n * N)
            tmp = flat[at_k]
            flat[at_k] = flat[at_s]
            flat[at_s] = tmp
            np.negative(sign, out=sign, where=swap)
        pivot = np.where(alive, m[k, k], 1)
        # Column k below the pivot is never read again, so only the
        # trailing submatrix is updated, row by row through one buffer.
        sub = m[k + 1 :, k + 1 :]
        sub *= pivot
        outer = buf[: n - k - 1]
        for i in range(k + 1, n):
            np.multiply(m[k, k + 1 :], m[i, k], out=outer)
            m[i, k + 1 :] -= outer
        if k:  # prev is 1 at k = 0
            _divide_exactly(sub, prev)
        prev = pivot
    return sign * m[n - 1, n - 1]


def _divide_exactly(a: np.ndarray, divisor: np.ndarray) -> None:
    """a //= divisor in place, broadcast over a's last axis, for a divisor
    that divides every entry of a and is nonzero.

    An ``object`` array takes ``//``. A b-bit integer array takes
    Jebelean's exact division (*J. Symbolic Computation* 15, 1993) and no
    ``//``: write the divisor as 2^t u with u odd, shift the t trailing
    zeros out of a (exact, since 2^t divides every entry), and multiply by
    the inverse of u modulo 2^b, with wrap-around on the unsigned view.
    The product is the quotient modulo 2^b, and the quotient is the true
    one when it fits the dtype, which :func:`exact_dtype` proves. Newton's
    step x <- x (2 - u x) doubles the number of correct low bits of the
    inverse, and x = u is right in 3 (u u = 1 mod 8 for every odd u), so
    4 steps reach 32 bits and 5 reach 64.

    The divisor is never 0. :func:`_eliminate` divides by the pivots of the
    step before: ``prev`` starts at 1, a dead matrix pivots on 1, and a
    live matrix's pivot is nonzero, since a zero pivot is swapped for the
    first nonzero entry below it or its matrix dies. So a divisor's square
    is 1 or at least 4, and the check for units below would pick the same
    divisors as ``divisor * divisor <= 1``.
    """
    # The divisor is a minor, so its square is within exact_dtype's bound.
    # Dividing exactly by a unit is multiplying by it.
    if (divisor * divisor == 1).all():
        a *= divisor
        return
    if a.dtype == object:
        a //= divisor
        return
    # The lowest set bit 2^t of the divisor is a float with exponent t + 1.
    t = np.frexp(divisor & -divisor)[1] - 1
    if t.any():
        t = t.astype(a.dtype)
        a >>= t
        divisor = divisor >> t
    unsigned = np.dtype(f"u{a.dtype.itemsize}")
    u = divisor.view(unsigned)
    inv = u.copy()
    correct = 3
    while correct < 8 * a.dtype.itemsize:
        step = u * inv
        np.subtract(2, step, out=step)
        inv *= step
        correct *= 2
    quotient = a.view(unsigned)
    quotient *= inv


def int_array(values) -> np.ndarray:
    """``values`` as an int64 array, or as an object array of Python ints
    when some value does not fit int64."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.asarray(values, dtype=object)


def batch_det(mats: np.ndarray) -> np.ndarray:
    """Signed determinants of a batch of square integer matrices, exactly.

    ``mats`` has shape (N, n, n); ValueError for matrices that are not
    square. The batch is copied to the (n, n, N) layout of
    :func:`batch_last_det` in the dtype :func:`exact_dtype` picks for its
    order and largest absolute entry, and the result is int64; when no
    integer dtype is wide enough (entries beyond int64 included), the
    result is an object array of Python ints.
    """
    mats = int_array(mats)
    N, n, n2 = mats.shape
    if n != n2:
        raise ValueError(f"matrices of shape {n} x {n2} are not square")
    c = max(int(mats.max()), -int(mats.min())) if mats.size else 0
    # astype copies, so the caller's array is never overwritten.
    block = mats.transpose(1, 2, 0).astype(exact_dtype(c, n), order="C")
    return batch_last_det(block, c)


def batch_abs_det(mats: np.ndarray) -> np.ndarray:
    """Absolute determinants of a batch, as :func:`batch_det`."""
    return np.abs(batch_det(mats))


def feasible(rows: list[list[int]], rhs: list[int]) -> bool:
    """Exact feasibility of {x >= 0 : A x = b} for integer A, b by phase-1
    simplex.

    Integer pivoting: the whole tableau stays a single positive multiple of
    the true rational tableau, every division is exact, and all sign and
    ratio tests are therefore exact. Bland's rule guarantees termination.
    """
    m = len(rows)
    if m == 0:
        return True
    n = len(rows[0])
    tab: list[list[int]] = []
    for row, b in zip(rows, rhs):
        row = [index(v) for v in row] + [index(b)]
        if row[n] < 0:
            row = [-v for v in row]
        tab.append(row)
    # Artificial variables form the starting basis; they may leave but never
    # re-enter, which preserves correctness for a phase-1 objective.
    basis = list(range(n, n + m))
    obj = [sum(tab[i][j] for i in range(m)) for j in range(n + 1)]
    prev = 1
    while True:
        enter = -1
        for j in range(n):
            if obj[j] > 0:
                enter = j
                break
        if enter < 0:
            return obj[n] == 0
        leave = -1
        bn = bd = 0  # best ratio bn/bd, bd > 0
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                rn = tab[i][n]
                if (
                    leave < 0
                    or rn * bd < bn * a
                    or (rn * bd == bn * a and basis[i] < basis[leave])
                ):
                    bn, bd = rn, a
                    leave = i
        if leave < 0:
            # Phase-1 objective is bounded below by zero; this cannot happen.
            raise ArithmeticError("unbounded phase-1 simplex")
        prow = tab[leave]
        piv = prow[enter]
        basis[leave] = enter
        for i in range(m):
            if i != leave:
                row = tab[i]
                f = row[enter]
                if f:
                    tab[i] = [(piv * a - f * b) // prev for a, b in zip(row, prow)]
                else:
                    tab[i] = [piv * a // prev for a in row]
        f = obj[enter]
        if f:
            obj = [(piv * a - f * b) // prev for a, b in zip(obj, prow)]
        else:
            obj = [piv * a // prev for a in obj]
        prev = piv


def barycentric_rows(pts) -> tuple[tuple[int, ...], ...] | None:
    """Integer barycentric rows of a full-dimensional simplex, or None.

    ``pts`` are d+1 points p_0..p_d of Z^d. Let M be the matrix with rows
    (p_r, 1) and D its determinant. Row r, applied to (x, 1), is |D| times
    the barycentric coordinate of x for p_r: zero on the facet opposite
    p_r, |D| at p_r, negative beyond that facet. The rows are |D| times the
    inverse of M^T, found by fraction-free Gauss-Jordan elimination on
    [M^T | I], which ends at [δ I | δ (M^T)^-1] with δ = ±D. None when the
    points are not d+1 affinely independent points of R^d.
    """
    n = len(pts)
    if n != len(pts[0]) + 1:
        return None
    a = [[p[k] for p in pts] + [int(i == k) for i in range(n)] for k in range(n - 1)]
    a.append([1] * n + [int(i == n - 1) for i in range(n)])
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    break
            else:
                return None
        row_k = a[k]
        piv = row_k[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(piv * x - f * y) // prev for x, y in zip(a[i], row_k)]
        prev = piv
    sign = 1 if prev > 0 else -1
    return tuple(tuple(sign * v for v in row[n:]) for row in a)


def _facet_certifies(bary, verts, skip, others, strict: bool) -> bool:
    """Some row of ``bary`` whose vertex is not in ``skip`` is negative
    (``strict``) or nonpositive on every point of ``others``. False when
    ``bary`` is None: a lower-dimensional simplex has no such rows."""
    if bary is None:
        return False
    for row, v in zip(bary, verts):
        if v not in skip:
            # row . (p, 1) < 0  iff  row[:d] . p < -row[d]; for integers,
            # row . (p, 1) <= 0  iff  row[:d] . p < 1 - row[d].
            bound = -row[-1] if strict else 1 - row[-1]
            if all(sum(map(mul, row, p)) < bound for p in others):
                return True
    return False


def _combination_rows(pts_a, pts_b) -> list[list[int]]:
    """Rows of Σλa - Σμb = 0 (one per coordinate) and Σλ - Σμ = 0, one
    column per vertex of A, then of B: the one LP formulation."""
    d = len(pts_a[0])
    rows = [[p[k] for p in pts_a] + [-q[k] for q in pts_b] for k in range(d)]
    rows.append([1] * len(pts_a) + [-1] * len(pts_b))
    return rows


def _hulls_meet_off(pts_a, pts_b, common) -> bool:
    """A common point of conv(A) and conv(B) with positive weight on a vertex
    of A outside ``common``:
    {λ, μ >= 0 : Σλa = Σμb, Σλ = Σμ, Σ_{a ∉ common} λ_a = 1} is feasible."""
    rows = _combination_rows(pts_a, pts_b)
    rows.append([int(p not in common) for p in pts_a] + [0] * len(pts_b))
    return feasible(rows, [0] * (len(rows) - 1) + [1])


def _relative_interiors_meet(pts_a, pts_b) -> bool:
    """Some point has strictly positive convex weights on all of A and on all
    of B: {λ >= 1, μ >= 1 : Σλa = Σμb, Σλ = Σμ} is feasible. With λ - 1 and
    μ - 1 as the variables, each right-hand side is minus its row's sum."""
    rows = _combination_rows(pts_a, pts_b)
    return feasible(rows, [-sum(r) for r in rows])


def simplices_face_to_face(pts_a, pts_b, bary_a=None, bary_b=None) -> bool:
    """Decide conv(A) ∩ conv(B) == conv(A ∩ B) for two simplices.

    Works for simplices of any dimension given by affinely independent
    vertex tuples. ``bary_a``/``bary_b`` are the :func:`barycentric_rows`
    of full-dimensional simplices, or None. First the facet certificate: a
    facet hyperplane of one simplex that misses a vertex outside the common
    ones and has every other non-common vertex of the other strictly beyond
    it. Otherwise the LP: by uniqueness of barycentric coordinates the
    hulls meet outside conv(A ∩ B) iff they share a point with positive
    weight on A \\ B.
    """
    common = set(pts_a) & set(pts_b)
    only_a = [p for p in pts_a if p not in common]
    only_b = [p for p in pts_b if p not in common]
    if not only_a or not only_b:
        # One vertex set contains the other: the smaller is a face of the larger.
        return True
    return (
        _facet_certifies(bary_a, pts_a, common, only_b, strict=True)
        or _facet_certifies(bary_b, pts_b, common, only_a, strict=True)
        or not _hulls_meet_off(pts_a, pts_b, common)
    )


def simplices_interiors_disjoint(pts_a, pts_b, bary_a=None, bary_b=None) -> bool:
    """Decide that two simplices have disjoint (relative) interiors.

    ``bary_a``/``bary_b`` as in :func:`simplices_face_to_face`. A facet
    hyperplane of one simplex with the other weakly beyond it certifies
    disjointness; otherwise the barycentric LP decides it.
    """
    return (
        _facet_certifies(bary_a, pts_a, (), pts_b, strict=False)
        or _facet_certifies(bary_b, pts_b, (), pts_a, strict=False)
        or not _relative_interiors_meet(pts_a, pts_b)
    )


def polytopes_interiors_disjoint(pts_a, pts_b) -> bool:
    """Disjoint interiors for two full-dimensional V-polytopes.

    The interior of conv(V) is exactly the set of strictly positive convex
    combinations of all of V, so this is the barycentric LP of
    :func:`simplices_interiors_disjoint` on all vertices of both.
    """
    return not _relative_interiors_meet(pts_a, pts_b)
