"""Product triangulations driven by a vertex coloring of the big factor.

Given a triangulation T_Q of Q, a triangulation T_0 of P x simplex(m-1) and
an m-coloring of Q's vertices, every cell P x sigma is lifted block-wise:
the vertices of sigma colored i become the columns of block i, the base
vertices of each T_0 cell the rows. Cells where a color is absent fall back
to the restriction of T_0 to the corresponding face. All per-cell lifts are
derived from the one global coloring and the canonical vertex orders, which
is what makes neighbouring cells agree on shared faces.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .complexes import Simplex, Triangulation, simplex_factor
from .geometry import (
    PointConfiguration,
    ProductLabel,
    as_cube_if_product_of_cubes,
    config_from_label,
)
from .staircase import (
    LiftedCell,
    lift_count,
    multi_staircases,
    product_blocks,
    restricted_base_cells,
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


def iter_product_cells(
    t_q: Triangulation, t0: Triangulation, coloring: Coloring
):
    """Yield (provenance, simplices) per (sigma, tau) cell, in output order.

    Simplices are vertex-index tuples over the product configuration,
    indexed by p * len(Q points) + q; ``provenance.start``/``end`` locate
    the cell's run in the concatenation of all cells' simplices.
    """
    m = _check_inputs(t_q, t0, coloring)
    nq = len(t_q.config.points)
    blocks_list = product_blocks(t0)
    start = 0
    for sigma in t_q.simplices:
        sigma_by_color: list[list[int]] = [[] for _ in range(m)]
        for q in sigma:
            sigma_by_color[coloring.colors[q]].append(q)
        present = tuple(i for i in range(m) if sigma_by_color[i])
        cols = tuple(tuple(sigma_by_color[i]) for i in present)
        for t_idx, rows in restricted_base_cells(blocks_list, present):
            simplices = multi_staircases(LiftedCell(rows, cols, nq))
            base_face = frozenset((p, i) for i, r in zip(present, rows) for p in r)
            signature = (tuple(len(r) for r in rows), tuple(len(c) for c in cols))
            end = start + len(simplices)
            yield (
                CellProvenance(
                    sigma, t_idx, base_face, rows, cols, start, end, signature
                ),
                simplices,
            )
            start = end


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
    simplices: list[Simplex] = []
    prov: list[CellProvenance] = []
    for cell, cell_simplices in iter_product_cells(t_q, t0, coloring):
        simplices.extend(cell_simplices)
        prov.append(cell)
    tri = Triangulation(product_output_config(t_q, t0), tuple(simplices))
    if with_provenance:
        return tri, prov
    return tri


def product_size(
    t_q: Triangulation, t0: Triangulation, coloring: Coloring
) -> int:
    """Closed-form size of triangulate_product: sum over (sigma, tau) of the
    per-block staircase-count product, with the absent-color conventions."""
    m = _check_inputs(t_q, t0, coloring)
    lvecs = [tuple(len(b) for b in blocks) for blocks in product_blocks(t0)]
    cache: dict[tuple[int, ...], int] = {}
    total = 0
    for sigma in t_q.simplices:
        counts = [0] * m
        for q in sigma:
            counts[coloring.colors[q]] += 1
        key = tuple(counts)
        if key not in cache:
            s = 0
            for lvec in lvecs:
                term = 1
                for k, l in zip(key, lvec):
                    term *= lift_count(k, l)
                    if term == 0:
                        break
                s += term
            cache[key] = s
        total += cache[key]
    return total


def size_bound(tq_size: int, t0_weighted: Fraction, n: int, m: int, l: int) -> Fraction:
    """|T_Q| * t_0 * (n/m + l)^l as an exact rational."""
    if m > n:
        raise ValueError("need m <= n")
    if l < 1:
        raise ValueError("need l >= 1")
    return tq_size * Fraction(t0_weighted) * (Fraction(n, m) + l) ** l


ENUMERATION_GUARD = 2**20


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


def exact_expected_size(
    t_q: Triangulation, t0: Triangulation, m: int, method: str = "auto"
) -> Fraction:
    """Exact average size of the product triangulation over all colorings.

    ``enumerate`` averages the closed-form size over every coloring of Q's
    vertex set (guarded at 2^20 colorings); ``multinomial`` sums the exact
    per-cell expectation of the staircase-count product under the uniform
    multinomial color distribution. Both routes agree exactly.
    """
    _check_inputs(t_q, t0, make_coloring(len(t_q.config.points), m))
    nv = len(t_q.config.points)
    lvecs = [tuple(len(b) for b in blocks) for blocks in product_blocks(t0)]
    if method == "auto":
        method = "enumerate" if m**nv <= ENUMERATION_GUARD else "multinomial"
    if method == "enumerate":
        if m**nv > ENUMERATION_GUARD:
            raise ValueError("coloring space too large to enumerate")
        total = Fraction(0)
        for colors in itertools.product(range(m), repeat=nv):
            coloring = Coloring(colors, m, "explicit")
            total += product_size(t_q, t0, coloring)
        return total / m**nv
    if method == "multinomial":
        n = t_q.config.dim + 1
        per_cell = _multinomial_expectation(n, m, lvecs)
        return len(t_q.simplices) * per_cell
    raise ValueError(f"unknown method {method!r}")


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
