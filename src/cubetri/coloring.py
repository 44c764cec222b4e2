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

The sigmas of T_Q are grouped by their per-color count vectors in one
place (:func:`_color_groups`), and the surviving T_0 cells of a count
vector come from one rule (:func:`_surviving_cells`). The generator and
the closed-form sizes (:func:`product_size`, :func:`exact_expected_size`)
both take them from there, the sizes with the per-cell staircase counts
of :func:`staircase.multi_staircase_count`.

One engine, :class:`ProductCells`, generates every product. A cell's
simplices depend only on its signature (lvec, kvec) up to relabelling its
rows and columns, so each signature's index template is built once
(:func:`staircase.signature_template`) and the per-signature certificate
is checked once per signature, not per cell. The simplices of T_Q with
one per-color count vector share their T_0 cells and templates, so every
group's template rows sit in one table, and a sigma's rows are its
group's run of it. One gather of that table and of the sigmas' vertices,
and one sort of each row, yields the rows of any run of consecutive
sigmas already in the cell-by-cell order. The rows come in slices of
consecutive sigmas of a bounded number of simplices
(:meth:`ProductCells.chunks`; the pipeline uses the census's
``CENSUS_CHUNK``), so a streamed step never holds all of its rows at once.

The block lift (:func:`lift_triangulation`) and the staircase
triangulation of simplex(k) x simplex(l) (:func:`staircase_triangulation`)
are products with one colored simplex, so they come from it too.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .complexes import Triangulation, index_rows, simplex_factor
from .geometry import (
    PointConfiguration,
    ProductLabel,
    as_cube_if_product_of_cubes,
    simplex_config,
)
from .staircase import multi_staircase_count, signature_template


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
) -> tuple[np.ndarray, list, np.ndarray, list[int]]:
    """The simplices of T_Q grouped by their per-color count vectors, once
    the inputs are checked: (colors, keys, group, times). ``colors`` holds
    the color of each vertex of each sigma, ``keys`` the distinct count
    vectors in ascending order, ``group[s]`` sigma s's key and ``times``
    how many sigmas have each key."""
    m = _check_inputs(t_q, t0, coloring)
    colors = np.array(coloring.colors, dtype=np.intp)[t_q.rows]
    counts = (colors[:, :, None] == np.arange(m)).sum(axis=1)
    keys, group, times = np.unique(
        counts, axis=0, return_inverse=True, return_counts=True
    )
    # The inverse's shape for axis=0 changed across numpy 2.0.x; flatten it.
    return colors, keys.tolist(), group.reshape(-1), times.tolist()


def _block_sizes(blocks_list) -> tuple[tuple[int, ...], ...]:
    """The block sizes of each T_0 cell, from its factor blocks
    (:attr:`Triangulation.blocks`)."""
    return tuple(tuple(map(len, blocks)) for blocks in blocks_list)


def _surviving_cells(lvecs, key) -> tuple[tuple[int, ...], list[int]]:
    """(present, cells) on a sigma with per-color counts ``key``, given the
    block sizes ``lvecs`` of the T_0 cells: the colors present in sigma,
    and the T_0 cells of the restriction of T_0 to their face. A cell
    survives iff each absent color's block is one vertex; its blocks of
    the present colors are its rows."""
    present = tuple(i for i, k in enumerate(key) if k)
    absent = [i for i, k in enumerate(key) if not k]
    cells = [t for t, lvec in enumerate(lvecs) if all(lvec[i] == 1 for i in absent)]
    return present, cells


def product_output_config(t_q: Triangulation, t0: Triangulation) -> PointConfiguration:
    """The configuration P x Q that the product of T_Q and T_0 triangulates."""
    left, _ = simplex_factor(t0.config)
    return PointConfiguration(
        as_cube_if_product_of_cubes(ProductLabel(left, t_q.config.label))
    )


class ProductCells:
    """The cells P x sigma of T_Q x T_0 under a coloring, generated from
    per-signature templates (:func:`staircase.signature_template`).

    T_Q's simplices are grouped by their per-color count vector. Within a
    group the present colors, hence the restricted T_0 cells and their
    templates, are the same. One template table holds every group's rows,
    group after group: the row values of each template vertex and the
    position of its column in a sigma's vertices by color. A sigma's rows
    are its group's run of the table, so the sorted index rows of any run
    of consecutive sigmas come from one gather of the table and of the
    sigmas' vertices, and one ``sort(axis=1)``. The order is therefore
    sigma by sigma, T_0 cell by T_0 cell, then template order. The table's
    row values and the sigmas' vertices are held in the output's index
    dtype (:func:`complexes.index_rows`: ``uint16`` below 65,536 points),
    so a slice of rows is gathered and sorted in it.
    """

    def __init__(self, t_q: Triangulation, t0: Triangulation, coloring: Coloring):
        colors, keys, self._group, _ = _color_groups(t_q, t0, coloring)
        self.t_q = t_q
        self.config = product_output_config(t_q, t0)
        nq = len(t_q.config.points)
        sig = t_q.rows.astype(np.intp)
        n_points = len(self.config.points)
        # Each sigma's vertices by color, in index order within a color.
        self._by_color = index_rows(np.sort(colors * nq + sig, axis=1) % nq, n_points)
        blocks_list = t0.blocks
        lvecs = _block_sizes(blocks_list)
        width = self.config.dim + 1
        self.signatures: dict = {}  # (lvec, kvec) -> simplices per cell
        # Per group: (kvec, cells), each cell (tau index, rows, offset,
        # count); its template rows are _count rows from _first.
        self._cells: list = []
        rowvals = [np.zeros((0, width), dtype=np.intp)]
        colpos = [np.zeros((0, width), dtype=np.intp)]
        sizes = []
        for key in keys:
            present, survivors = _surviving_cells(lvecs, key)
            kvec = tuple(key[i] for i in present)
            cells = []
            offset = 0
            for t_idx in survivors:
                rows = tuple(blocks_list[t_idx][i] for i in present)
                lvec = tuple(len(r) for r in rows)
                tr, tc = signature_template(lvec, kvec)
                rv = np.array([p for r in rows for p in r], dtype=np.intp)
                rowvals.append(rv[tr] * nq)
                colpos.append(tc)
                cells.append((t_idx, rows, offset, len(tr)))
                self.signatures[(lvec, kvec)] = len(tr)
                offset += len(tr)
            self._cells.append((kvec, cells))
            sizes.append(offset)
        self._rowvals = index_rows(np.concatenate(rowvals), n_points)
        self._colpos = np.concatenate(colpos)
        self._count = np.array(sizes, dtype=np.intp)
        self._first = np.cumsum(self._count) - self._count
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
        """One record per (sigma, tau) cell, in output order."""
        out = []
        for s_idx, sigma in enumerate(self.t_q.simplices):
            kvec, cells = self._cells[self._group[s_idx]]
            flat = self._by_color[s_idx].tolist()
            bounds = list(itertools.accumulate(kvec, initial=0))
            cols = tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))
            base = int(self.starts[s_idx])
            for t_idx, rows, offset, count in cells:
                start = base + offset
                out.append(CellProvenance(sigma, t_idx, rows, cols, start, start + count))
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


def _cell_types(t0: Triangulation) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(block sizes, cells) for each distinct block-size vector of T_0's
    cells (:attr:`Triangulation.blocks`): what a closed-form size needs of
    T_0."""
    return tuple(Counter(_block_sizes(t0.blocks)).items())


@lru_cache(maxsize=None)
def _sigma_size(cell_types, key: tuple[int, ...]) -> int:
    """Simplices over one sigma of T_Q with per-color counts ``key``: the
    sum over the surviving T_0 cells (:func:`_surviving_cells`) of the
    staircase count of their blocks of the present colors
    (:func:`staircase.multi_staircase_count`), one count per distinct
    block-size vector (:func:`_cell_types`). Cached, as the steps and the
    expectation ask for a few keys many times."""
    present, survivors = _surviving_cells([lvec for lvec, _ in cell_types], key)
    kvec = [key[i] for i in present]
    total = 0
    for lvec, cells in (cell_types[t] for t in survivors):
        total += cells * multi_staircase_count([lvec[i] for i in present], kvec)
    return total


def product_size(
    t_q: Triangulation, t0: Triangulation, coloring: Coloring
) -> int:
    """Closed-form size of triangulate_product: the per-sigma size term
    of each distinct per-color count vector of T_Q's simplices, times the
    number of simplices that have it."""
    _, keys, _, times = _color_groups(t_q, t0, coloring)
    types = _cell_types(t0)
    return sum(n * _sigma_size(types, tuple(key)) for key, n in zip(keys, times))


def size_bound(tq_size: int, t0_weighted: Fraction, n: int, m: int, l: int) -> Fraction:
    """|T_Q| * t_0 * (n/m + l)^l as an exact rational."""
    if m > n:
        raise ValueError("need m <= n")
    if l < 1:
        raise ValueError("need l >= 1")
    return tq_size * Fraction(t0_weighted) * (Fraction(n, m) + l) ** l


def _multinomial_expectation(n: int, m: int, cell_types) -> Fraction:
    """E over uniform colorings of one n-vertex sigma of
    :func:`_sigma_size`."""
    total = Fraction(0)
    denom = m**n
    for kvec in itertools.product(range(n + 1), repeat=m - 1):
        rest = n - sum(kvec)
        if rest < 0:
            continue
        full = kvec + (rest,)
        weight = math.factorial(n)
        for k in full:
            weight //= math.factorial(k)
        total += Fraction(weight * _sigma_size(cell_types, full), denom)
    return total


def exact_expected_size(t_q: Triangulation, t0: Triangulation, m: int) -> Fraction:
    """Exact average size of the product triangulation over all colorings.

    The n vertices of a simplex of T_Q are distinct, so under a uniform
    coloring their colors are independent and uniform: each simplex's size
    term has the same multinomial expectation, and by linearity the
    average over all m^|Q| colorings is |T_Q| times that expectation.
    """
    _check_inputs(t_q, t0, make_coloring(len(t_q.config.points), m))
    n = t_q.config.dim + 1
    return t_q.size * _multinomial_expectation(n, m, _cell_types(t0))


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
