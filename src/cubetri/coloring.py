"""Product triangulations driven by a vertex coloring of the big factor.

Given a triangulation T_Q of Q, a triangulation T_0 of P x simplex(m-1) and
an m-coloring of Q's vertices, every cell P x sigma is lifted block-wise:
the vertices of sigma colored i become the columns of block i, the base
vertices of each T_0 cell the rows. Cells where a color is absent fall back
to the restriction of T_0 to the corresponding face. All per-cell lifts are
derived from the one global coloring and the canonical vertex orders, which
is what makes neighbouring cells agree on shared faces.

One engine, :class:`ProductCells`, generates every product. A cell's
simplices depend only on its signature (lvec, kvec) up to relabelling its
rows and columns, so each signature's index template is built once
(:func:`staircase.signature_template`) and the per-signature certificate
is checked once per signature, not per cell. The simplices of T_Q with
one per-color count vector share their T_0 cells and templates; one numpy
gather and sort yields all their cells, and a scatter on the cumulative
per-sigma counts puts every row where the cell-by-cell order has it. The
rows come in slices of consecutive sigmas of a bounded number of
simplices (:meth:`ProductCells.chunks`; the pipeline uses the census's
``CENSUS_CHUNK``), so a streamed step never holds all of its rows at once.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .complexes import Triangulation, simplex_factor
from .geometry import (
    PointConfiguration,
    ProductLabel,
    as_cube_if_product_of_cubes,
    config_from_label,
)
from .staircase import (
    lift_count,
    product_blocks,
    restricted_base_cells,
    signature_template,
)


@dataclass(frozen=True)
class Coloring:
    colors: tuple[int, ...]  # colors[q_index] in range(m)
    m: int
    strategy: str
    rng_seed: int | None = None

    def __post_init__(self):
        if any(c < 0 or c >= self.m for c in self.colors):
            raise ValueError("color out of range")


def make_coloring(
    q_vertices: int,
    m: int,
    strategy: str = "balanced",
    rng_seed: int | None = None,
    explicit: dict[int, int] | None = None,
) -> Coloring:
    """Color the vertices 0..q_vertices-1 with m colors.

    ``balanced`` assigns round-robin in canonical vertex order; ``random``
    draws i.i.d. uniform colors from a seeded Mersenne Twister (identical
    seeds give identical colorings on every platform); ``explicit`` passes
    a user map through unchanged.
    """
    if m < 1:
        raise ValueError("need at least one color")
    if strategy == "balanced":
        return Coloring(tuple(i % m for i in range(q_vertices)), m, strategy)
    if strategy == "random":
        rng = random.Random(rng_seed)
        return Coloring(
            tuple(rng.randrange(m) for _ in range(q_vertices)), m, strategy, rng_seed
        )
    if strategy == "explicit":
        if explicit is None or sorted(explicit) != list(range(q_vertices)):
            raise ValueError("explicit coloring must cover every vertex")
        return Coloring(
            tuple(explicit[i] for i in range(q_vertices)), m, strategy
        )
    raise ValueError(f"unknown strategy {strategy!r}")


@dataclass
class CellProvenance:
    """Where a run of output simplices came from: one (sigma, tau) cell."""

    sigma: tuple[int, ...]
    tau_index: int
    base_face: frozenset  # (base index, color) pairs actually lifted
    rows: tuple[tuple[int, ...], ...]
    cols: tuple[tuple[int, ...], ...]
    start: int
    end: int
    signature: tuple[tuple[int, ...], tuple[int, ...]]  # (lvec, kvec), present


def _check_inputs(t_q: Triangulation, t0: Triangulation, coloring: Coloring) -> int:
    _, m = simplex_factor(t0.config)
    if coloring.m != m:
        raise ValueError("coloring color count must match t0's simplex factor")
    if len(coloring.colors) != len(t_q.config.points):
        raise ValueError("coloring must cover every vertex of Q")
    return m


def product_output_config(t_q: Triangulation, t0: Triangulation) -> PointConfiguration:
    """The configuration P x Q that the product of T_Q and T_0 triangulates."""
    left, _ = simplex_factor(t0.config)
    return config_from_label(
        as_cube_if_product_of_cubes(ProductLabel(left, t_q.config.label))
    )


class _Group(NamedTuple):
    """The simplices of T_Q with one per-color count vector. They share
    their present colors, hence their restricted T_0 cells and templates;
    only the column values differ from one member to the next."""

    kvec: tuple[int, ...]  # counts of the present colors
    members: np.ndarray  # indices into T_Q's simplices, ascending
    cols: np.ndarray  # (members, K): each member's vertices, by color
    cells: list  # per T_0 cell: (tau index, rows, lvec, base face, offset, count)
    rowvals: np.ndarray  # (T, V): p * |Q points| of each template vertex
    colpos: np.ndarray  # (T, V): position of its column in a row of ``cols``


class ProductCells:
    """The cells P x sigma of T_Q x T_0 under a coloring, generated from
    per-signature templates (:func:`staircase.signature_template`).

    T_Q's simplices are grouped by their per-color count vector. Within a
    group the present colors, hence the restricted T_0 cells and their
    templates, are the same, so a group holds two gather arrays: the row
    values of its cells' template vertices and the positions of their
    columns. The sorted index rows of every sigma in a group come from one
    ``np.sort(rowvals + cols[:, colpos], axis=2)`` and are scattered to
    their output positions, which the cumulative per-sigma counts give.
    The order is therefore sigma by sigma, T_0 cell by T_0 cell, then
    template order.
    """

    def __init__(self, t_q: Triangulation, t0: Triangulation, coloring: Coloring):
        m = _check_inputs(t_q, t0, coloring)
        self.t_q = t_q
        self.config = product_output_config(t_q, t0)
        nq = len(t_q.config.points)
        sig = t_q.rows.astype(np.intp)
        colors = np.array(coloring.colors, dtype=np.intp)[sig]
        counts = (colors[:, :, None] == np.arange(m)).sum(axis=1)
        key_of: dict[tuple[int, ...], int] = {}
        self._group_of = [
            key_of.setdefault(tuple(c), len(key_of)) for c in counts.tolist()
        ]
        group_of = np.array(self._group_of, dtype=np.intp)
        # Each sigma's vertices by color, in index order within a color.
        by_color = np.sort(colors * nq + sig, axis=1) % nq
        blocks_list = product_blocks(t0)
        width = self.config.dim + 1
        per_sigma = np.zeros(len(sig), dtype=np.intp)
        self.signatures: dict = {}  # (lvec, kvec) -> simplices per cell
        self.groups: list[_Group] = []
        for g, key in enumerate(key_of):
            present = tuple(i for i in range(m) if key[i])
            kvec = tuple(key[i] for i in present)
            cells = []
            rowvals = [np.zeros((0, width), dtype=np.intp)]
            colpos = [np.zeros((0, width), dtype=np.intp)]
            offset = 0
            for t_idx, rows in restricted_base_cells(blocks_list, present):
                lvec = tuple(len(r) for r in rows)
                tr, tc = signature_template(lvec, kvec)
                rv = np.array([p for r in rows for p in r], dtype=np.intp)
                rowvals.append(rv[tr] * nq)
                colpos.append(tc)
                base_face = frozenset((p, i) for i, r in zip(present, rows) for p in r)
                cells.append((t_idx, rows, lvec, base_face, offset, len(tr)))
                self.signatures[(lvec, kvec)] = len(tr)
                offset += len(tr)
            members = np.flatnonzero(group_of == g)
            per_sigma[members] = offset
            self.groups.append(
                _Group(
                    kvec,
                    members,
                    by_color[members],
                    cells,
                    np.concatenate(rowvals),
                    np.concatenate(colpos),
                )
            )
        self.starts = np.concatenate(([0], np.cumsum(per_sigma))).astype(np.intp)
        self.width = width

    def simplex_rows(self, lo: int, hi: int) -> np.ndarray:
        """Sorted index rows of the cells of sigmas lo..hi-1, in output
        order, as one (rows, V) array."""
        starts = self.starts
        out = np.empty((starts[hi] - starts[lo], self.width), dtype=np.intp)
        for grp in self.groups:
            a, b = bisect_left(grp.members, lo), bisect_left(grp.members, hi)
            if a == b:
                continue
            vals = grp.rowvals + grp.cols[a:b][:, grp.colpos]
            vals.sort(axis=2)
            at = starts[grp.members[a:b]] - starts[lo]
            pos = at[:, None] + np.arange(len(grp.rowvals))
            out[pos.reshape(-1)] = vals.reshape(-1, self.width)
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
            grp = self.groups[self._group_of[s_idx]]
            flat = grp.cols[bisect_left(grp.members, s_idx)].tolist()
            bounds = list(itertools.accumulate(grp.kvec, initial=0))
            cols = tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))
            base = int(self.starts[s_idx])
            for t_idx, rows, lvec, base_face, offset, count in grp.cells:
                start = base + offset
                out.append(
                    CellProvenance(
                        sigma,
                        t_idx,
                        base_face,
                        rows,
                        cols,
                        start,
                        start + count,
                        (lvec, grp.kvec),
                    )
                )
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


def product_size(
    t_q: Triangulation, t0: Triangulation, coloring: Coloring
) -> int:
    """Closed-form size of triangulate_product: sum over (sigma, tau) of the
    per-block staircase-count product, with the absent-color conventions.
    Each distinct per-color count vector of T_Q's simplices is summed once,
    times the number of simplices that have it."""
    m = _check_inputs(t_q, t0, coloring)
    lvecs = [tuple(len(b) for b in blocks) for blocks in product_blocks(t0)]
    colors = np.array(coloring.colors, dtype=np.intp)[t_q.rows]
    counts = (colors[:, :, None] == np.arange(m)).sum(axis=1)
    keys, mult = np.unique(counts, axis=0, return_counts=True)
    total = 0
    for key, times in zip(keys.tolist(), mult.tolist()):
        s = 0
        for lvec in lvecs:
            term = 1
            for k, l in zip(key, lvec):
                term *= lift_count(k, l)
                if term == 0:
                    break
            s += term
        total += times * s
    return total


def size_bound(tq_size: int, t0_weighted: Fraction, n: int, m: int, l: int) -> Fraction:
    """|T_Q| * t_0 * (n/m + l)^l as an exact rational."""
    if m > n:
        raise ValueError("need m <= n")
    if l < 1:
        raise ValueError("need l >= 1")
    return tq_size * Fraction(t0_weighted) * (Fraction(n, m) + l) ** l


def _multinomial_expectation(n: int, m: int, lvecs) -> Fraction:
    """E over uniform colorings of one n-vertex cell of the size term."""
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
        term = 0
        for lvec in lvecs:
            prod = 1
            for k, l in zip(full, lvec):
                prod *= lift_count(k, l)
                if prod == 0:
                    break
            term += prod
        total += Fraction(weight * term, denom)
    return total


def exact_expected_size(t_q: Triangulation, t0: Triangulation, m: int) -> Fraction:
    """Exact average size of the product triangulation over all colorings.

    The n vertices of a simplex of T_Q are distinct, so under a uniform
    coloring their colors are independent and uniform: each simplex's size
    term has the same multinomial expectation, and by linearity the
    average over all m^|Q| colorings is |T_Q| times that expectation.
    """
    _check_inputs(t_q, t0, make_coloring(len(t_q.config.points), m))
    lvecs = [tuple(len(b) for b in blocks) for blocks in product_blocks(t0)]
    n = t_q.config.dim + 1
    return len(t_q.simplices) * _multinomial_expectation(n, m, lvecs)


@dataclass
class SampleStats:
    mean: Fraction
    minimum: int
    maximum: int
    samples: int
    rng_seed: int
    best: Coloring


def monte_carlo_size(
    t_q: Triangulation,
    t0: Triangulation,
    m: int,
    samples: int,
    rng_seed: int,
) -> SampleStats:
    """Deterministic sampled size statistics; keeps the best coloring found."""
    if samples < 1:
        raise ValueError("need at least one sample")
    nv = len(t_q.config.points)
    rng = random.Random(rng_seed)
    best_size = None
    best_coloring = None
    total = 0
    lo = hi = None
    for _ in range(samples):
        colors = tuple(rng.randrange(m) for _ in range(nv))
        coloring = Coloring(colors, m, "random", rng_seed)
        size = product_size(t_q, t0, coloring)
        total += size
        lo = size if lo is None else min(lo, size)
        hi = size if hi is None else max(hi, size)
        if best_size is None or size < best_size:
            best_size = size
            best_coloring = coloring
    return SampleStats(Fraction(total, samples), lo, hi, samples, rng_seed, best_coloring)
