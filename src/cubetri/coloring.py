"""Product triangulations driven by a vertex coloring of the big factor.

Given a triangulation T_Q of Q, a triangulation T_0 of P x simplex(m-1) (of
P itself for m = 1, :func:`complexes.simplex_factor`) and an m-coloring of
Q's vertices, every cell P x sigma is lifted block-wise: the vertices of
sigma colored i become the columns of block i, the base vertices of each
T_0 cell the rows. Cells where a color is absent fall back to the
restriction of T_0 to the corresponding face: a T_0 cell survives iff
each absent color's block is one vertex. All per-cell lifts are derived
from the one global coloring and the canonical vertex orders, which is
what makes neighbouring cells agree on shared faces.

The sigmas of T_Q are grouped by their per-color count vectors, their
keys, in one place (:func:`_color_groups`), and the T_0 cells that
survive on each key come from one (keys, cells) mask (:func:`_survivors`).
The generator and the closed-form sizes (:func:`product_size`,
:func:`exact_expected_size`) share both. The sizes take a small table of
C(k+l-2, l-1) (:func:`_key_sizes`) and never read a staircase, so the
pipeline's volume census, which counts a step's rows against
:func:`product_size`, holds an enumeration against a closed form.

One engine, :class:`ProductCells`, generates every product from one
path table per distinct block (:func:`staircase.block_paths`), with no
Python per cell, in slices of consecutive sigmas of a bounded number of
simplices (:meth:`ProductCells.chunks`; the pipeline takes the census's
batch, :func:`complexes.census_batch`, 2,048 rows up to d = 8 and 8,192
beyond), so a streamed step never holds all of its rows.

The block lift (:func:`lift_triangulation`) and the staircase
triangulation of simplex(k) x simplex(l) (:func:`staircase_triangulation`)
are products with one colored simplex, so they come from it too.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .complexes import Triangulation, index_rows, simplex_factor
from .geometry import (
    PointConfiguration,
    ProductLabel,
    as_cube_if_product_of_cubes,
    simplex_config,
)
from .staircase import block_paths, multi_staircase_count


@dataclass(frozen=True)
class Coloring:
    colors: tuple[int, ...]  # colors[q_index] in range(m)
    m: int

    def __post_init__(self):
        if any(c < 0 or c >= self.m for c in self.colors):
            raise ValueError("color out of range")


def make_coloring(
    q_vertices: int, m: int, strategy: str = "balanced", rng_seed: int | None = None
) -> Coloring:
    """Color the vertices 0..q_vertices-1 with m colors.

    ``balanced`` assigns round-robin in canonical vertex order; ``random``
    draws i.i.d. uniform colors from a Mersenne Twister seeded with
    ``rng_seed``, which it needs (identical seeds give identical colorings
    on every platform). A given coloring is a :class:`Coloring` built
    directly.
    """
    if m < 1:
        raise ValueError("need at least one color")
    if strategy == "balanced":
        return Coloring(tuple(i % m for i in range(q_vertices)), m)
    if strategy == "random":
        if rng_seed is None:
            raise ValueError("a random coloring needs an rng_seed")
        rng = random.Random(rng_seed)
        return Coloring(tuple(rng.randrange(m) for _ in range(q_vertices)), m)
    raise ValueError(f"unknown strategy {strategy!r}")


@dataclass
class CellProvenance:
    """Where a run of output simplices came from: one (sigma, tau) cell."""

    sigma: tuple[int, ...]
    tau_index: int
    rows: tuple[tuple[int, ...], ...]
    cols: tuple[tuple[int, ...], ...]
    start: int
    end: int


def _check_inputs(t_q: Triangulation, t0: Triangulation, coloring: Coloring) -> int:
    _, m = simplex_factor(t0.config)
    if coloring.m != m:
        raise ValueError("coloring color count must match t0's simplex factor")
    if len(coloring.colors) != len(t_q.config.points):
        raise ValueError("coloring must cover every vertex of Q")
    return m


def _color_groups(
    t_q: Triangulation, t0: Triangulation, coloring: Coloring
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The simplices of T_Q grouped by their per-color count vectors, once
    the inputs are checked: (colors, keys, group, times). ``colors`` holds
    the color of each vertex of each sigma, ``keys`` the distinct count
    vectors in ascending order, one per row, ``group[s]`` sigma s's key and
    ``times`` how many sigmas have each key. A vector is grouped by one
    code, its counts as digits in base n + 1 (Python ints past int64)."""
    m = _check_inputs(t_q, t0, coloring)
    colors = np.array(coloring.colors, dtype=np.intp)[t_q.rows]
    counts = (colors[:, :, None] == np.arange(m)).sum(axis=1)
    radix = colors.shape[1] + 1
    digits = [radix**e for e in range(m - 1, -1, -1)]
    code = counts @ np.array(digits, dtype=np.int64 if radix**m <= 2**63 else object)
    _, first, group, times = np.unique(
        code, return_index=True, return_inverse=True, return_counts=True
    )
    return colors, counts[first], group, times


def _block_sizes(t0: Triangulation) -> np.ndarray:
    """The (cells, m) block sizes of T_0's cells, from their factor blocks
    (:attr:`Triangulation.blocks`)."""
    return np.array([list(map(len, blocks)) for blocks in t0.blocks])


def _survivors(sizes: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The (keys, cells) mask of the T_0 cells, of block sizes ``sizes``,
    that survive on a sigma with per-color counts ``keys[g]``: the cells of
    T_0 on the face of its present colors, each absent color's block one
    vertex."""
    return ~((keys[:, None, :] == 0) & (sizes != 1)).any(axis=2)


def product_output_config(t_q: Triangulation, t0: Triangulation) -> PointConfiguration:
    """The configuration P x Q that the product of T_Q and T_0 triangulates."""
    left, _ = simplex_factor(t0.config)
    return PointConfiguration(
        as_cube_if_product_of_cubes(ProductLabel(left, t_q.config.label))
    )


class ProductCells:
    """The cells P x sigma of T_Q x T_0 under a coloring, generated from
    one path table per distinct block (:func:`staircase.block_paths`).

    The cells of a (key, surviving T_0 cell) pair are the product of its
    blocks' tables in ``itertools.product`` order. One table, gathered from
    the pairs' arrays, holds the rows of every pair, key by key and cell by
    cell: the row value of each vertex and the position of its column in a
    sigma's vertices by color. A sigma's rows are its key's run of it, so
    the sorted index rows of consecutive sigmas come from one gather of the
    table and the sigmas' vertices, in the output's index dtype
    (:func:`complexes.index_rows`), and one ``sort(axis=1)``.
    """

    def __init__(self, t_q: Triangulation, t0: Triangulation, coloring: Coloring):
        colors, self._keys, self._group, _ = _color_groups(t_q, t0, coloring)
        self.t_q, self._t0 = t_q, t0
        self.config = product_output_config(t_q, t0)
        nq = len(t_q.config.points)
        n_points = len(self.config.points)
        width = self.config.dim + 1
        # Each sigma's vertices by color, in index order within a color.
        by_color = np.sort(colors * nq + t_q.rows, axis=1) % nq
        self._by_color = index_rows(by_color, n_points)
        sizes = _block_sizes(t0)
        # The (key, T_0 cell) pairs, key by key, and the (l, k) of their
        # blocks; an absent color's is one row and no column.
        self._key, self._cell = _survivors(sizes, self._keys).nonzero()
        ls, ks = sizes[self._cell], self._keys[self._key]
        present = ks > 0
        radix = int(ks.max(initial=0)) + 1
        code = ls * radix + ks
        distinct = np.flatnonzero(np.bincount(code[present]))  # ascending
        self.blocks = [divmod(c, radix) for c in distinct.tolist()]
        tables = [block_paths(l, k)[..., 0] for l, k in self.blocks]  # rows
        which = np.where(present, np.searchsorted(distinct, code), len(tables))
        n_paths = np.array([len(t) for t in tables] + [1])[which]
        self._pair_count = n_paths.prod(axis=1)
        self._rows_at = rows_at = np.concatenate(([0], np.cumsum(self._pair_count)))
        # A pair's block of color i spans w[i] of its columns, one per step.
        w = np.where(present, ls + ks - 1, 0)

        def at(a):  # each column's entry of a
            return np.repeat(a.ravel(), w.ravel()).reshape(-1, width)

        step = np.arange(width) - at(np.cumsum(w, axis=1) - w)
        table_at = np.cumsum([0] + [t.size for t in tables])
        # Every index is below ``bound``: a pair's rows have at least as
        # many vertices as its blocks' tables.
        bound = max(rows_at[-1] * width, t0.rows.size)
        stride, period, first, pitch, base_at, col_at = (
            index_rows(a, bound)
            for a in (
                at(np.cumprod(n_paths[:, ::-1], axis=1)[:, ::-1] // n_paths),
                at(n_paths),
                at(table_at[which]) + step,
                at(w),
                at(np.cumsum(ls, axis=1) - ls) + self._cell[:, None] * t0.rows.shape[1],
                at(np.cumsum(ks, axis=1) - ks) + step,
            )
        )
        flat = index_rows(np.concatenate([t.ravel() for t in tables] + [[0]]), bound)
        base = [[p * nq for b in bl for p in b] for bl in t0.blocks]
        # Row u of a pair takes path u // stride % period of each block.
        pair = np.repeat(np.arange(len(n_paths)), self._pair_count)
        u = index_rows(np.arange(rows_at[-1]) - rows_at[pair], bound)
        h = flat[first[pair] + (u[:, None] // stride[pair] % period[pair]) * pitch[pair]]
        self._rowvals = index_rows(base, n_points).reshape(-1)[base_at[pair] + h]
        self._colpos = col_at[pair] - h  # column = step - row
        by_key = rows_at[np.searchsorted(self._key, np.arange(len(self._keys) + 1))]
        self._first, self._count = by_key[:-1], np.diff(by_key)
        per_sigma = self._count[self._group]
        self.starts = np.concatenate(([0], np.cumsum(per_sigma))).astype(np.intp)

    def simplex_rows(self, lo: int, hi: int) -> np.ndarray:
        """Sorted index rows of the cells of sigmas lo..hi-1, in output
        order, as one (rows, V) array in the index dtype. Every sum of a
        row value and a vertex is a point index, so it never overflows."""
        group = self._group[lo:hi]
        counts = self._count[group]
        # Output row r of sigma s is row r - (starts[s] - starts[lo]) of
        # its group's run, which begins at first[group].
        shift = self._first[group] - (self.starts[lo:hi] - self.starts[lo])
        tmpl = np.arange(self.starts[hi] - self.starts[lo]) + np.repeat(shift, counts)
        nv = self._by_color.shape[1]
        at = np.repeat(np.arange(lo, hi) * nv, counts)[:, None] + self._colpos[tmpl]
        out = self._rowvals[tmpl] + self._by_color.reshape(-1)[at]
        out.sort(axis=1)
        return out

    def chunks(self, max_rows: int) -> Iterator[np.ndarray]:
        """:meth:`simplex_rows` over slices of consecutive sigmas of at most
        ``max_rows`` rows each (or one sigma, if it alone has more), so the
        whole step is never held at once."""
        starts = self.starts
        n = len(starts) - 1
        lo = 0
        while lo < n:
            hi = bisect_right(starts, starts[lo] + max_rows) - 1
            hi = min(max(hi, lo + 1), n)
            yield self.simplex_rows(lo, hi)
            lo = hi

    def provenance(self) -> list[CellProvenance]:
        """One record per (sigma, tau) cell, in output order: the pairs of
        each sigma's key, each at its offset in the sigma's run."""
        blocks, keys = self._t0.blocks, self._keys.tolist()
        runs: list = [[] for _ in keys]  # per key: (cell, rows, offset, count)
        offsets = (self._rows_at[:-1] - self._first[self._key]).tolist()
        counts = self._pair_count.tolist()
        for g, t, a, n in zip(self._key.tolist(), self._cell.tolist(), offsets, counts):
            runs[g].append((t, tuple(b for b, k in zip(blocks[t], keys[g]) if k), a, n))
        out = []
        sigmas = zip(self.t_q.simplices, self._group.tolist(), self._by_color.tolist())
        for (sigma, g, flat), s0 in zip(sigmas, self.starts.tolist()):
            ends = itertools.accumulate(keys[g])
            cols = tuple(tuple(flat[e - k : e]) for e, k in zip(ends, keys[g]) if k)
            for t, rows, a, n in runs[g]:
                out.append(CellProvenance(sigma, t, rows, cols, s0 + a, s0 + a + n))
        return out


def triangulate_product(
    t_q: Triangulation,
    t0: Triangulation,
    coloring: Coloring,
    with_provenance: bool = False,
):
    """Triangulation of P x Q from T_Q, T_0 and a coloring of Q's vertices.

    Requires T_Q face-to-face (cells must agree on shared faces for the
    output to be a triangulation; the checker verifies rather than trusts).
    Returns the triangulation, plus per-cell provenance when requested.
    """
    cells = ProductCells(t_q, t0, coloring)
    tri = Triangulation(cells.config, cells.simplex_rows(0, t_q.size))
    if with_provenance:
        return tri, cells.provenance()
    return tri


def lift_triangulation(t0: Triangulation, kvec: tuple[int, ...]) -> Triangulation:
    """Multi-staircase lift of P x simplex(m-1) to P x simplex(n-1), n =
    sum(kvec): the product of T_0 with the one simplex of simplex(n-1),
    its vertices colored k_1 times 0, then k_2 times 1, and so on.

    kvec entries must be positive (an absent color is handled by callers
    via restriction to the corresponding face). Its size is the sum over
    base cells of the per-cell staircase-count product.
    """
    _, m = simplex_factor(t0.config)
    if len(kvec) != m:
        raise ValueError("kvec length must match the simplex factor")
    if any(k < 1 for k in kvec):
        raise ValueError("kvec entries must be >= 1; restrict to a face first")
    n = sum(kvec)
    colors = tuple(i for i, k in enumerate(kvec) for _ in range(k))
    t_q = Triangulation(simplex_config(n - 1), (tuple(range(n)),))
    return triangulate_product(t_q, t0, Coloring(colors, m))


def staircase_triangulation(k: int, l: int) -> Triangulation:
    """The staircase triangulation of simplex(k) x simplex(l): the lift of
    simplex(k), which is simplex(k) x simplex(0), by (l + 1,).

    Exactly C(k+l, k) cells, one per monotone staircase of the
    (k+1) x (l+1) grid; every cell is unimodular.
    """
    if k < 0 or l < 0:
        raise ValueError("factor dimensions must be >= 0")
    t0 = Triangulation(simplex_config(k), (tuple(range(k + 1)),))
    return lift_triangulation(t0, (l + 1,))


def _key_sizes(sizes: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The closed-form simplices over a sigma of each count vector of
    ``keys``, for T_0 cells of block sizes ``sizes``: the sum over the
    surviving cells (:func:`_survivors`) of the product over present colors
    of their blocks' staircase counts (:func:`staircase.multi_staircase_count`),
    as Python ints."""
    ks, ls = range(keys.max(initial=0) + 1), range(1, sizes.max(initial=1) + 1)
    comb = [[multi_staircase_count([l], [k]) if k else 1 for k in ks] for l in ls]
    per_cell = np.array(comb, dtype=object)[sizes - 1, keys[:, None]].prod(axis=2)
    return (per_cell * _survivors(sizes, keys)).sum(axis=1)


def product_size(
    t_q: Triangulation, t0: Triangulation, coloring: Coloring
) -> int:
    """Closed-form size of triangulate_product: the per-sigma size of each
    distinct per-color count vector of T_Q's simplices
    (:func:`_key_sizes`), times the number of simplices that have it."""
    _, keys, _, times = _color_groups(t_q, t0, coloring)
    return int((times * _key_sizes(_block_sizes(t0), keys)).sum())


def size_bound(tq_size: int, t0_weighted: Fraction, n: int, m: int, l: int) -> Fraction:
    """|T_Q| * t_0 * (n/m + l)^l as an exact rational."""
    if m > n:
        raise ValueError("need m <= n")
    if l < 1:
        raise ValueError("need l >= 1")
    return tq_size * Fraction(t0_weighted) * (Fraction(n, m) + l) ** l


def _multinomial_expectation(n: int, m: int, sizes: np.ndarray) -> Fraction:
    """E over uniform colorings of one n-vertex sigma of its size
    (:func:`_key_sizes`), for T_0 cells of block sizes ``sizes``."""
    keys = [
        (*kvec, n - sum(kvec))
        for kvec in itertools.product(range(n + 1), repeat=m - 1)
        if sum(kvec) <= n
    ]
    weights = [math.factorial(n) // math.prod(map(math.factorial, key)) for key in keys]
    sizes_by_key = _key_sizes(sizes, np.array(keys))
    return Fraction(sum(w * size for w, size in zip(weights, sizes_by_key)), m**n)


def exact_expected_size(t_q: Triangulation, t0: Triangulation, m: int) -> Fraction:
    """Exact average size of the product triangulation over all colorings.

    The n vertices of a simplex of T_Q are distinct, so under a uniform
    coloring their colors are independent and uniform: each simplex's size
    term has the same multinomial expectation, and by linearity the
    average over all m^|Q| colorings is |T_Q| times that expectation.
    """
    _check_inputs(t_q, t0, make_coloring(len(t_q.config.points), m))
    n = t_q.config.dim + 1
    return t_q.size * _multinomial_expectation(n, m, _block_sizes(t0))


@dataclass
class SampleStats:
    mean: Fraction
    minimum: int
    maximum: int
    samples: int


def monte_carlo_size(
    t_q: Triangulation,
    t0: Triangulation,
    m: int,
    samples: int,
    rng_seed: int,
) -> SampleStats:
    """Deterministic sampled size statistics."""
    if samples < 1:
        raise ValueError("need at least one sample")
    nv = len(t_q.config.points)
    rng = random.Random(rng_seed)
    total = 0
    lo = hi = None
    for _ in range(samples):
        colors = tuple(rng.randrange(m) for _ in range(nv))
        size = product_size(t_q, t0, Coloring(colors, m))
        total += size
        lo = size if lo is None else min(lo, size)
        hi = size if hi is None else max(hi, size)
    return SampleStats(Fraction(total, samples), lo, hi, samples)
