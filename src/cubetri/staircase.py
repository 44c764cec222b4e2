"""Multi-staircases of one lifted cell: templates, counts and regularity.

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
values through the template and a sort of each row.
:class:`coloring.ProductCells` runs that gather for many cells at once,
and every product comes from it: the block lift and the staircase
triangulation of simplex(k) x simplex(l) included
(:func:`coloring.lift_triangulation`,
:func:`coloring.staircase_triangulation`). :func:`multi_staircases` is
the gather for one cell, the per-cell recompute that
:class:`verification.StructuredChecker` holds a product's runs against.
:func:`multi_staircase_count` counts a cell's multi-staircases without
building them, which sizes a product (:func:`coloring.product_size`), and
:func:`staircase_block_regular` certifies that a block's staircases tile
it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .complexes import Simplex


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


def multi_staircase_count(lvec: list[int], kvec: list[int]) -> int:
    """Product over blocks of the per-block staircase counts: an l-row,
    k-column block has C(k+l-2, l-1) monotone staircases."""
    if len(lvec) != len(kvec):
        raise ValueError("block count mismatch")
    if any(l < 1 for l in lvec) or any(k < 1 for k in kvec):
        raise ValueError("block sizes must be positive")
    return math.prod(math.comb(k + l - 2, l - 1) for l, k in zip(lvec, kvec))


@dataclass
class LiftedCell:
    """One lifted cell: per-block row vertices (base) and column vertices.

    ``rows[i]`` are base-point indices in canonical order; ``cols[i]`` are
    target-point indices in canonical order; the product vertex of row
    point p and column point q is ``p * n_target + q``.
    """

    rows: tuple[tuple[int, ...], ...]
    cols: tuple[tuple[int, ...], ...]
    n_target: int


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


def multi_staircases(cell: LiftedCell) -> list[Simplex]:
    """All multi-staircases of one lifted cell, as sorted vertex-index
    tuples in template order: one gather of the cell's row and column
    values through its :func:`signature_template`."""
    lvec = tuple(len(r) for r in cell.rows)
    kvec = tuple(len(c) for c in cell.cols)
    tr, tc = signature_template(lvec, kvec)
    rowvals = np.array([p for r in cell.rows for p in r], dtype=np.intp)
    colvals = np.array([q for c in cell.cols for q in c], dtype=np.intp)
    out = rowvals[tr] * cell.n_target + colvals[tc]
    out.sort(axis=1)
    return list(map(tuple, out.tolist()))


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
