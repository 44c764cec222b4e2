"""The Cayley correspondence between product triangulations and fine mixed
subdivisions of iterated Minkowski sums.

A simplex of P x simplex(m-1) splits into the vertex sets over each simplex
vertex; those sets, read as an ordered list of summands, are a mixed cell
of P + ... + P. The map is a bijection on cells and round-trips exactly.
Mixed subdivisions store summand lists (the data the correspondence and the
small-dimension constructions actually use). Their geometry is checked on
the Cayley triangulation alone: :func:`validate_mixed` is the ridge
certificate of :func:`mixed_to_triangulation`, and a subdivision's
weighted size is ``weighted_size(mixed_to_triangulation(sub))``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .complexes import (
    Simplex,
    Triangulation,
    ValidityReport,
    Violation,
    _census,
    factor_blocks,
    ridge_violations,
    simplex_costs,
    simplex_factor,
)
from .geometry import (
    CubeLabel,
    PointConfiguration,
    parse_label,
    point_count,
    product_config,
    simplex_config,
)

Summand = tuple[int, ...]

MIXED_BASE_GUARD = 2**16  # base points a read file may name: cube(16)
MIXED_CAYLEY_GUARD = 2**20  # its Cayley coordinates: cube(16) at m = 1


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


def triangulation_to_mixed(tri: Triangulation) -> MixedSubdivision:
    """Fine mixed subdivision corresponding to a triangulation of
    P x simplex(m-1)."""
    left, m = simplex_factor(tri.config)
    base = PointConfiguration(left)
    cells = tuple(MixedCell(factor_blocks(s, m)) for s in tri.simplices)
    return MixedSubdivision(base, m, cells)


def _cayley_simplex(cell: MixedCell, base: PointConfiguration, m: int) -> Simplex:
    """The Cayley simplex of ``cell``: point p of summand i is vertex
    p m + i of P x simplex(m-1). ValueError for a cell that cannot give
    one: a summand count other than m, an empty summand, an index that is
    not a point of P, or a vertex count other than l + m (summand
    dimensions that do not sum to l)."""
    summands = cell.summands
    if len(summands) != m:
        raise ValueError(f"cell {summands}: {len(summands)} summands, not {m}")
    if not all(summands):
        raise ValueError(f"cell {summands}: empty summand")
    n = len(base.points)
    if not all(0 <= p < n for b in summands for p in b):
        raise ValueError(f"cell {summands}: an index is not a point of {base.label}")
    verts = tuple(sorted(p * m + i for i, b in enumerate(summands) for p in b))
    l = base.dim
    if len(verts) != l + m:
        raise ValueError(f"cell {summands}: {len(verts)} Cayley vertices, not {l + m}")
    return verts


def mixed_to_triangulation(sub: MixedSubdivision) -> Triangulation:
    """Inverse of :func:`triangulation_to_mixed`: the Cayley simplices of
    the cells, in cell order. Raises ValueError only for a cell that has no
    Cayley simplex (:func:`_cayley_simplex`). A cell whose summands are
    affinely dependent or not in complementary directions gives a
    degenerate simplex; deciding fineness and tiling is
    :func:`validate_mixed`'s job."""
    cfg = product_config(sub.base, simplex_config(sub.m - 1))
    return Triangulation(cfg, [_cayley_simplex(c, sub.base, sub.m) for c in sub.cells])


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
    """Exact validation through the Cayley trick: the cells form a fine
    mixed subdivision of P + ... + P exactly when their Cayley simplices
    triangulate P x simplex(m-1) (Huber, Rambau and Santos, *J. Eur. Math.
    Soc.* 2, 2000), which the census and the ridge check of
    :mod:`complexes` decide, as in :func:`complexes.ridge_report`.

    A cell that has no Cayley simplex is one ``not-fine`` violation and
    stays out of the check; the violations of the census and the ridge
    check of the other cells follow, in :func:`complexes.ridge_report`'s
    order. ``volume_total`` is the mixed volume of the cells, m^l l! for a
    subdivision: each cell's Cayley volume, from the same census, times
    its cost l! / prod(dim B_i!) (:func:`complexes.simplex_costs`).
    """
    return _checked_cayley(sub)[0]


def _checked_cayley(sub: MixedSubdivision) -> tuple[ValidityReport, Triangulation]:
    """:func:`validate_mixed`'s report and the Cayley triangulation it
    checked, of the cells that have a Cayley simplex; when the report
    holds, that is :func:`mixed_to_triangulation` of ``sub``."""
    violations: list[Violation] = []
    simplices = []
    for cell in sub.cells:
        try:
            simplices.append(_cayley_simplex(cell, sub.base, sub.m))
        except ValueError as exc:
            violations.append(Violation("not-fine", (cell.summands,), str(exc)))
    cfg = product_config(sub.base, simplex_config(sub.m - 1))
    tri = Triangulation(cfg, simplices)
    full, vols, _, found = _census(tri)
    violations += found + ridge_violations(cfg, full, vols)
    shares, _ = simplex_costs(cfg, tri.rows)
    total = sum(abs(vol) * share for vol, share in zip(vols.tolist(), shares))
    ok = not violations
    return ValidityReport(ok, ok, total, violations), tri


def mixed_to_json(sub: MixedSubdivision) -> str:
    obj = {
        "base": str(sub.base.label),
        "m": sub.m,
        "cells": [[list(b) for b in cell.summands] for cell in sub.cells],
    }
    return json.dumps(obj)


def mixed_from_json(text: str) -> MixedSubdivision:
    """Read :func:`mixed_to_json`'s text. ValueError unless it is an object
    with a string ``base`` of at most ``MIXED_BASE_GUARD`` points, a
    positive ``int`` ``m`` whose Cayley configuration, base x simplex(m-1),
    has at most ``MIXED_CAYLEY_GUARD`` coordinates (both sized before any
    point is built), and ``cells`` that are lists of summand lists of
    ``int`` indices of base points; whether the cells subdivide is
    :func:`validate_mixed`'s question."""
    obj = json.loads(text)
    if type(obj) is not dict or type(obj.get("base")) is not str:
        raise ValueError("not a mixed subdivision file")
    label = parse_label(obj["base"])
    if point_count(label) > MIXED_BASE_GUARD:
        raise ValueError(f"base {label} has more than {MIXED_BASE_GUARD} points")
    m = obj.get("m")
    if type(m) is not int or m < 1:
        raise ValueError(f"m {m!r} is not a positive integer")
    if point_count(label) * m * (label.dim + m - 1) > MIXED_CAYLEY_GUARD:
        raise ValueError(f"base {label} at m = {m} has more Cayley coordinates "
                         f"than MIXED_CAYLEY_GUARD = {MIXED_CAYLEY_GUARD}")
    base = PointConfiguration(label)
    cells = obj.get("cells")
    if type(cells) is not list or not all(
        type(c) is list and all(type(b) is list for b in c) for c in cells
    ):
        raise ValueError("cells are not lists of summand lists")
    cells = tuple(MixedCell(tuple(map(tuple, c))) for c in cells)
    n = len(base.points)
    for p in (p for cell in cells for b in cell.summands for p in b):
        if type(p) is not int or not 0 <= p < n:
            raise ValueError(f"summand entry {p!r} is not a point of {base.label}")
    return MixedSubdivision(base, m, cells)
