"""Staircase triangulations of simplex products and the block lift.

A cell of a lifted product decomposes into blocks, one per factor vertex
(or color); block i is a grid with rows a chain of base vertices and
columns a chain of target vertices. A multi-staircase picks a monotone
lattice path in every block, and the multi-staircases of a cell triangulate
it. Row order inside a block is the canonical base order, column order the
canonical target order, so outputs are reproducible byte for byte.

The multi-staircases of a cell depend only on its signature (lvec, kvec),
the block sizes, up to relabelling rows and columns. Each signature's
template (:func:`signature_template`, cached) lists them once as row and
column positions; a cell's simplices are one gather of its row and column
values through the template and a sort of each row
(:func:`cell_rows`). :func:`multi_staircases` is that gather for one
cell; :class:`coloring.ProductCells` runs it for many cells at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .complexes import Simplex, Triangulation, factor_blocks, simplex_factor
from .geometry import config_from_label, product_config, simplex_config


@lru_cache(maxsize=None)
def monotone_paths(nrows: int, ncols: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All monotone staircases from (0,0) to (nrows-1, ncols-1).

    Paths step +1 in the row or the column index and are emitted in
    lexicographic order of their step sequences.
    """
    if nrows < 1 or ncols < 1:
        raise ValueError("grid must have at least one row and one column")

    out: list[tuple[tuple[int, int], ...]] = []

    def walk(r: int, c: int, acc: list[tuple[int, int]]):
        if r == nrows - 1 and c == ncols - 1:
            out.append(tuple(acc))
            return
        if c < ncols - 1:  # column step first: lexicographic path order
            acc.append((r, c + 1))
            walk(r, c + 1, acc)
            acc.pop()
        if r < nrows - 1:
            acc.append((r + 1, c))
            walk(r + 1, c, acc)
            acc.pop()

    walk(0, 0, [(0, 0)])
    return tuple(out)


def lift_count(k: int, l: int) -> int:
    """Number of monotone staircases in an l-row, k-column block.

    The degenerate conventions make the closed-form size formula exact when
    a color is absent from a cell: a single-row block always contributes 1,
    and an empty column set kills the term unless the block is a single row.
    """
    if l == 1:
        return 1
    if k == 0:
        return 0
    return math.comb(k + l - 2, l - 1)


def multi_staircase_count(lvec: list[int], kvec: list[int]) -> int:
    """Product over blocks of the per-block staircase counts."""
    if len(lvec) != len(kvec):
        raise ValueError("block count mismatch")
    if any(l < 1 for l in lvec) or any(k < 1 for k in kvec):
        raise ValueError("block sizes must be positive")
    total = 1
    for l, k in zip(lvec, kvec):
        total *= lift_count(k, l)
    return total


@dataclass
class LiftedCell:
    """One lifted cell: per-block row vertices (base) and column vertices.

    ``rows[i]`` are base-point indices in canonical order; ``cols[i]`` are
    target-point indices in canonical order; ``out_index(p, q)`` maps a
    (row, column) pair to a vertex index of the ambient product.
    """

    rows: tuple[tuple[int, ...], ...]
    cols: tuple[tuple[int, ...], ...]
    n_target: int

    def out_index(self, p: int, q: int) -> int:
        return p * self.n_target + q

    def vertex_count(self) -> int:
        return sum(len(r) * len(c) for r, c in zip(self.rows, self.cols))


@lru_cache(maxsize=None)
def signature_template(
    lvec: tuple[int, ...], kvec: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """The multi-staircases of every cell with signature (lvec, kvec).

    Returns two read-only (T, V) arrays, T the number of multi-staircases
    and V = sum(l + k - 1) their vertex count: the row position and the
    column position of each vertex, counted across blocks (block i's rows
    come after the l_1 + ... + l_{i-1} rows of the blocks before it, and
    likewise its columns). Template rows follow ``itertools.product`` over
    the blocks' :func:`monotone_paths`, which is the output order of a
    cell's simplices.
    """
    row_off = list(itertools.accumulate(lvec, initial=0))
    col_off = list(itertools.accumulate(kvec, initial=0))
    per_block = [monotone_paths(l, k) for l, k in zip(lvec, kvec)]
    rows: list[list[int]] = []
    cols: list[list[int]] = []
    for combo in itertools.product(*per_block):
        rows.append([r + h for r, path in zip(row_off, combo) for h, _ in path])
        cols.append([c + j for c, path in zip(col_off, combo) for _, j in path])
    width = sum(lvec) + sum(kvec) - len(lvec)
    tr = np.array(rows, dtype=np.intp).reshape(len(rows), width)
    tc = np.array(cols, dtype=np.intp).reshape(len(cols), width)
    tr.flags.writeable = tc.flags.writeable = False
    return tr, tc


def cell_rows(cell: LiftedCell) -> np.ndarray:
    """The multi-staircases of one lifted cell as a (T, V) array of sorted
    vertex-index rows, in template order: one gather through the cell's
    :func:`signature_template`."""
    lvec = tuple(len(r) for r in cell.rows)
    kvec = tuple(len(c) for c in cell.cols)
    tr, tc = signature_template(lvec, kvec)
    rowvals = np.array([p for r in cell.rows for p in r], dtype=np.intp)
    colvals = np.array([q for c in cell.cols for q in c], dtype=np.intp)
    out = rowvals[tr] * cell.n_target + colvals[tc]
    out.sort(axis=1)
    return out


def multi_staircases(cell: LiftedCell) -> list[Simplex]:
    """All multi-staircases of a lifted cell, as sorted vertex-index tuples."""
    return list(map(tuple, cell_rows(cell).tolist()))


def product_blocks(t0: Triangulation) -> list[tuple[tuple[int, ...], ...]]:
    """Per-simplex factor blocks of a triangulation of P x simplex(m-1).

    Block i of a simplex holds the base-point indices of its vertices over
    the i-th simplex vertex, in canonical order.
    """
    _, m = simplex_factor(t0.config)
    return [factor_blocks(s, m) for s in t0.simplices]


def restricted_base_cells(
    blocks_list: list[tuple[tuple[int, ...], ...]], present: tuple[int, ...]
) -> list[tuple[int, tuple[tuple[int, ...], ...]]]:
    """Base cells induced on the face spanned by the ``present`` factors.

    A cell survives iff every absent block is a single vertex; in a valid
    face-to-face triangulation each surviving restriction occurs exactly
    once.
    """
    absent = [i for i in range(len(blocks_list[0])) if i not in present]
    out = []
    for t_idx, blocks in enumerate(blocks_list):
        if all(len(blocks[i]) == 1 for i in absent):
            out.append((t_idx, tuple(blocks[i] for i in present)))
    return out


def lift_cell(
    t0: Triangulation, base_simplex: Simplex, kvec: tuple[int, ...]
) -> LiftedCell:
    """Lift one cell of a triangulation of P x simplex(m-1) by kvec.

    Column (i, j) of the target simplex gets the global index
    offset(i) + j where offset(i) = k_1 + ... + k_{i-1}.
    """
    _, m = simplex_factor(t0.config)
    if len(kvec) != m:
        raise ValueError("kvec length must match the simplex factor")
    if any(k < 1 for k in kvec):
        raise ValueError("kvec entries must be >= 1; restrict to a face first")
    n = sum(kvec)
    offsets = [0] * m
    for i in range(1, m):
        offsets[i] = offsets[i - 1] + kvec[i - 1]
    rows = factor_blocks(base_simplex, m)
    cols = tuple(
        tuple(range(offsets[i], offsets[i] + kvec[i])) for i in range(m)
    )
    return LiftedCell(rows, cols, n)


def lift_triangulation(
    t0: Triangulation, kvec: tuple[int, ...]
) -> Triangulation:
    """Multi-staircase lift of P x simplex(m-1) to P x simplex(n-1).

    kvec entries must be positive (an absent color is handled by callers
    via restriction to the corresponding face). The output passes the
    face-to-face checker; its size is the sum over base cells of the
    per-cell staircase-count product.
    """
    left, _ = simplex_factor(t0.config)
    n = sum(kvec)
    left_cfg = config_from_label(left)
    out_cfg = product_config(left_cfg, simplex_config(n - 1))
    rows = [cell_rows(lift_cell(t0, s, kvec)) for s in t0.simplices]
    return Triangulation(out_cfg, np.concatenate(rows) if rows else ())


def staircase_triangulation(k: int, l: int) -> Triangulation:
    """The staircase triangulation of simplex(k) x simplex(l).

    Exactly C(k+l, k) cells, one per monotone staircase of the
    (k+1) x (l+1) grid; every cell is unimodular.
    """
    if k < 0 or l < 0:
        raise ValueError("factor dimensions must be >= 0")
    cfg = product_config(simplex_config(k), simplex_config(l))
    ncols = l + 1
    simplices = []
    for path in monotone_paths(k + 1, l + 1):
        simplices.append(tuple(sorted(i * ncols + j for i, j in path)))
    return Triangulation(cfg, tuple(simplices))


@lru_cache(maxsize=None)
def staircase_block_regular(l: int, k: int) -> bool:
    """Certify strict regularity of the staircase triangulation of an
    l-row, k-column block under the heights (row - col)^2.

    For each staircase, solve the additive potential a_h + b_j matching the
    heights along the path and check strict domination off the path. When
    this holds for every path, any two staircases of the block admit an
    exact separating functional (difference of the two potentials), so the
    staircases meet face to face and tile the block.
    """
    for path in monotone_paths(l, k):
        a = [None] * l
        b = [None] * k
        a[0] = 0
        on_path = set(path)
        for h, j in path:
            if b[j] is None:
                b[j] = (h - j) ** 2 - a[h]
            elif a[h] is None:
                a[h] = (h - j) ** 2 - b[j]
        for h in range(l):
            for j in range(k):
                val = a[h] + b[j]
                target = (h - j) ** 2
                if (h, j) in on_path:
                    if val != target:
                        return False
                elif val >= target:
                    return False
    return True


def certify_cell_regular(lvec: tuple[int, ...], kvec: tuple[int, ...]) -> bool:
    """Per-block strict-regularity certificate for a lifted cell signature."""
    return all(staircase_block_regular(l, k) for l, k in zip(lvec, kvec))
