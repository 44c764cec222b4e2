"""The Cayley correspondence between product triangulations and fine mixed
subdivisions of iterated Minkowski sums.

A simplex of P x simplex(m-1) splits into the vertex sets over each simplex
vertex; those sets, read as an ordered list of summands, are a mixed cell
of P + ... + P. The map is a bijection on cells and round-trips exactly.
Mixed subdivisions store summand lists (the data the correspondence and the
small-dimension constructions actually use); geometry is derived on demand.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .complexes import (
    Triangulation,
    ValidityReport,
    Violation,
    factor_blocks,
    simplex_factor,
)
from .geometry import (
    CubeLabel,
    PointConfiguration,
    affine_rank,
    config_from_label,
    parse_label,
    product_config,
    simplex_config,
)

Summand = tuple[int, ...]


@dataclass(frozen=True)
class MixedCell:
    """An ordered Minkowski cell B_1 + ... + B_m of P-vertex index sets."""

    summands: tuple[Summand, ...]

    def dims(self) -> tuple[int, ...]:
        return tuple(len(b) - 1 for b in self.summands)


@dataclass
class MixedSubdivision:
    base: PointConfiguration
    m: int
    cells: tuple[MixedCell, ...]


def _cell_edges(base: PointConfiguration, cell: MixedCell):
    """Edge vectors of the distinct summands, with multiplicities.

    Returns (edges, groups) where groups lists (multiplicity, dim) per
    distinct summand; repeated summands arise from scaled subdivisions and
    contribute a dilation factor, not new directions.
    """
    pts = base.points
    counts: dict[Summand, int] = {}
    for b in cell.summands:
        counts[b] = counts.get(b, 0) + 1
    edges = []
    groups = []
    for b, mult in counts.items():
        t = len(b) - 1
        p0 = pts[b[0]]
        for i in b[1:]:
            edges.append([pts[i][j] - p0[j] for j in range(base.dim)])
        groups.append((mult, t))
    return edges, groups


def cell_normalized_volume(base: PointConfiguration, cell: MixedCell) -> Fraction:
    """Normalized volume (l! times Euclidean) of the geometric cell.

    The cell is the Minkowski sum of dilated simplices in complementary
    directions: an affine image of a product of standard simplices, so the
    volume is |det(edges)| * l! * prod(mult^dim) / prod(dim!).
    """
    l = base.dim
    edges, groups = _cell_edges(base, cell)
    if sum(t for _, t in groups) != l:
        return Fraction(0)
    det = abs(linalg.det_bareiss(edges))
    vol = Fraction(det * math.factorial(l))
    for mult, t in groups:
        vol = vol * mult**t / math.factorial(t)
    return vol


def cell_points(base: PointConfiguration, cell: MixedCell) -> list[tuple[int, ...]]:
    """All pairwise-sum lattice points of the cell (its V-description)."""
    pts = base.points
    sums = set()
    for combo in itertools.product(*[b for b in cell.summands]):
        total = tuple(
            sum(pts[i][j] for i in combo) for j in range(base.dim)
        )
        sums.add(total)
    return sorted(sums)


def _check_fine(base: PointConfiguration, cell: MixedCell) -> str | None:
    l = base.dim
    pts = base.points
    total_dim = 0
    for b in cell.summands:
        if not b:
            return "empty summand"
        if affine_rank([pts[i] for i in b]) != len(b) - 1:
            return "summand not a simplex"
        total_dim += len(b) - 1
    if total_dim != l:
        return f"summand dimensions sum to {total_dim}, not {l}"
    edges, _ = _cell_edges(base, cell)
    if len(edges) != l or abs(linalg.det_bareiss(edges)) == 0:
        return "summands not in complementary directions"
    return None


def triangulation_to_mixed(tri: Triangulation) -> MixedSubdivision:
    """Fine mixed subdivision corresponding to a triangulation of
    P x simplex(m-1)."""
    left, m = simplex_factor(tri.config)
    base = config_from_label(left)
    cells = tuple(MixedCell(factor_blocks(s, m)) for s in tri.simplices)
    return MixedSubdivision(base, m, cells)


def mixed_to_triangulation(sub: MixedSubdivision) -> Triangulation:
    """Inverse of :func:`triangulation_to_mixed`; rejects non-fine cells."""
    m = sub.m
    cfg = product_config(sub.base, simplex_config(m - 1))
    simplices = []
    for cell in sub.cells:
        if len(cell.summands) != m:
            raise ValueError("cell summand count does not match m")
        err = _check_fine(sub.base, cell)
        if err:
            raise ValueError(f"non-fine cell {cell.summands}: {err}")
        verts = []
        for i, b in enumerate(cell.summands):
            for p in b:
                verts.append(p * m + i)
        simplices.append(tuple(sorted(verts)))
    return Triangulation(cfg, tuple(simplices))


def scale_mixed(sub: MixedSubdivision, kvec: tuple[int, ...]) -> MixedSubdivision:
    """Replace summand i by k_i copies: the scaled (coarse) mixed subdivision
    of the sum with n = sum(kvec) summands."""
    if len(kvec) != sub.m:
        raise ValueError("kvec length must match the summand count")
    if any(k < 1 for k in kvec):
        raise ValueError("kvec entries must be >= 1")
    cells = []
    for cell in sub.cells:
        reps: list[Summand] = []
        for b, k in zip(cell.summands, kvec):
            reps.extend([b] * k)
        cells.append(MixedCell(tuple(reps)))
    return MixedSubdivision(sub.base, sum(kvec), tuple(cells))


def mixed_weighted_size(sub: MixedSubdivision) -> Fraction:
    """Sum over cells of prod_i 1/(dim B_i)!; equals the weighted size of
    the corresponding Cayley triangulation."""
    total = Fraction(0)
    for cell in sub.cells:
        w = Fraction(1)
        for b in cell.summands:
            w /= math.factorial(len(b) - 1)
        total += w
    return total


def count_area2_squares(sub: MixedSubdivision) -> int:
    """Cells of a planar sum of unit squares whose two segment summands are
    the two opposite diagonals."""
    if not isinstance(sub.base.label, CubeLabel) or sub.base.label.l != 2:
        raise ValueError("area-2 square census needs base cube(2)")
    # canonical cube(2) order: (0,0), (0,1), (1,0), (1,1)
    diag_main = (0, 3)
    diag_anti = (1, 2)
    count = 0
    for cell in sub.cells:
        segs = sorted(b for b in cell.summands if len(b) == 2)
        bigger = [b for b in cell.summands if len(b) > 2]
        if not bigger and segs == [diag_main, diag_anti]:
            count += 1
    return count


def summand_projection(sub: MixedSubdivision, i: int) -> Triangulation:
    """The i-th summands of all cells, deduplicated; for a fine subdivision
    the full-dimensional ones triangulate the base."""
    l = sub.base.dim
    seen = {}
    for cell in sub.cells:
        b = cell.summands[i]
        if len(b) == l + 1:
            seen[b] = None
    return Triangulation(sub.base, tuple(seen))


def validate_mixed(sub: MixedSubdivision) -> ValidityReport:
    """Exact geometric validation: fineness per cell, volume census against
    m^l * l!, and pairwise disjoint interiors of the realized cells."""
    violations: list[Violation] = []
    l = sub.base.dim
    vols = []
    realized = []
    for cell in sub.cells:
        err = _check_fine(sub.base, cell)
        if err:
            violations.append(Violation("not-fine", (cell.summands,), err))
        v = cell_normalized_volume(sub.base, cell)
        if v == 0:
            violations.append(Violation("degenerate", (cell.summands,)))
        vols.append(v)
        realized.append(cell_points(sub.base, cell))
    total = sum(vols, Fraction(0))
    expected = Fraction(sub.m**l * math.factorial(l))
    if total != expected:
        violations.append(
            Violation("volume-mismatch", (), f"got {total}, expected {expected}")
        )
    n = len(sub.cells)
    for i in range(n):
        for j in range(i + 1, n):
            if not linalg.polytopes_interiors_disjoint(realized[i], realized[j]):
                violations.append(
                    Violation(
                        "interior-overlap",
                        (sub.cells[i].summands, sub.cells[j].summands),
                    )
                )
    ok = not violations
    # volume_total reported as an int when integral (fine cells always are)
    vt = int(total) if total.denominator == 1 else total
    return ValidityReport(ok, False, vt, violations)


def decompose_cell(
    base: PointConfiguration, m: int, target_points: list[tuple[int, ...]]
) -> MixedCell | None:
    """Search for a fine summand decomposition of a cell given only by its
    vertex set. Brute force over simplex summands with dimension pruning;
    intended for reconstructing cells from drawings, not for bulk use."""
    l = base.dim
    target = set(map(tuple, target_points))
    pts = base.points
    nb = len(pts)
    simplices_by_dim: dict[int, list[Summand]] = {}
    for size in range(1, l + 2):
        out = []
        for combo in itertools.combinations(range(nb), size):
            if affine_rank([pts[i] for i in combo]) == size - 1:
                out.append(combo)
        simplices_by_dim[size - 1] = out

    def rec(pos: int, remaining_dim: int, acc: list[Summand]):
        if pos == m:
            if remaining_dim != 0:
                return None
            cell = MixedCell(tuple(acc))
            if _check_fine(base, cell) is None and set(
                map(tuple, cell_points(base, cell))
            ) == target:
                return cell
            return None
        for t in range(min(remaining_dim, l) + 1):
            for b in simplices_by_dim[t]:
                acc.append(b)
                got = rec(pos + 1, remaining_dim - t, acc)
                acc.pop()
                if got is not None:
                    return got
        return None

    return rec(0, l, [])


def mixed_to_json(sub: MixedSubdivision) -> str:
    obj = {
        "base": str(sub.base.label),
        "m": sub.m,
        "cells": [[list(b) for b in cell.summands] for cell in sub.cells],
    }
    return json.dumps(obj)


def mixed_from_json(text: str) -> MixedSubdivision:
    obj = json.loads(text)
    base = config_from_label(parse_label(obj["base"]))
    cells = tuple(
        MixedCell(tuple(tuple(b) for b in cell)) for cell in obj["cells"]
    )
    return MixedSubdivision(base, obj["m"], cells)
