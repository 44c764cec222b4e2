"""Multi-staircases of one lifted cell: block tables, counts and regularity.

A cell of a lifted product decomposes into blocks, one per factor vertex
(or color); block i is a grid with rows a chain of base vertices and
columns a chain of target vertices. A multi-staircase picks a monotone
lattice path in every block, and the multi-staircases of a cell triangulate
it. Row order inside a block is the canonical base order, column order the
canonical target order, so outputs are reproducible byte for byte.

A block's staircases depend only on its size (l, k), so each distinct
block has one table of them (:func:`block_paths`, cached), and a cell's
multi-staircases are the cartesian product of its blocks' tables in
``itertools.product`` order. :class:`coloring.ProductCells` runs that
product for every cell of a step at once, and every product comes from
it. :func:`multi_staircases` is the product for one cell, the per-cell
recompute that :class:`verification.StructuredChecker` holds a product's
runs against. :func:`multi_staircase_count` counts a cell's
multi-staircases without building them, and
:func:`staircase_block_regular` certifies that a block's staircases tile
it: with the count of a block's table, the pipeline's per-block
certificate.
"""

from __future__ import annotations

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
def block_paths(l: int, k: int) -> np.ndarray:
    """The staircases of an l-row, k-column block as one read-only
    (P, l + k - 1, 2) array, in :func:`monotone_paths` order: the (row,
    column) position of each vertex of each of its P staircases."""
    paths = np.array(monotone_paths(l, k), dtype=np.intp).reshape(-1, l + k - 1, 2)
    paths.flags.writeable = False
    return paths


def multi_staircases(cell: LiftedCell) -> list[Simplex]:
    """All multi-staircases of one lifted cell, as sorted vertex-index
    tuples: each block's staircases gathered from its :func:`block_paths`
    table, then their cartesian product in ``itertools.product`` order,
    first block slowest."""
    out = np.zeros((1, 0), dtype=np.intp)
    for rows, cols in zip(cell.rows, cell.cols):
        h, j = np.moveaxis(block_paths(len(rows), len(cols)), 2, 0)
        block = np.array(rows)[h] * cell.n_target + np.array(cols)[j]
        out = np.hstack((np.repeat(out, len(h), axis=0), np.tile(block, (len(out), 1))))
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
    for path in block_paths(l, k).tolist():
        a = [None] * l
        b = [None] * k
        a[0] = 0
        on_path = set(map(tuple, path))
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
