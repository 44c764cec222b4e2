"""Exhaustive triangulation enumeration on tiny configurations.

Replaces integer programming over the universal polytope at desk scale:
every face-to-face triangulation of the configuration is produced exactly
once by a canonical ridge-driven backtracking search, and the minimum of
the objective is the same search run as a branch-and-bound.

Minimum: each candidate has an integer cost (:func:`complexes.simplex_costs`,
or 1 per cell for ``cardinality``), and r is the least ratio of cost to
normalized volume over the candidates. The cells still to come fill the
volume left, so they cost at least r times it; their cost is an integer,
so at least that bound's ceiling. Every open ridge needs one more cell,
which closes at most d+1 of them, so they also cost at least the least
candidate cost times ceil(open ridges / (d+1)). A branch is cut when its
cost so far plus the larger bound reaches the best total found. Costs are
positive and only a strictly smaller total replaces the best, so the
witness is the first minimal triangulation in enumeration order, the one
an exhaustive scan keeps.

Canonical enumeration: each triangulation contains exactly one cell whose
tangent cone at the anchor, vertex 0, contains a fixed generic direction; the
search branches over those starting cells, then repeatedly completes the
lexicographically first open ridge. Both steps are deterministic, so the
leaves of the search tree biject with the triangulations.

A cell joins only under the ridge conditions of
:func:`complexes.ridge_violations`, so a closed leaf passes the ridge
certificate. The search takes no determinant of its own: censuses
(:func:`complexes.signed_volumes`) give the candidates, their volumes,
their ridge sides (:func:`complexes._apex_sides`) and the starting cells.
The ridges are named and matched by the certificate's code
(:func:`complexes._ridge_rows` and its runs of equal rows,
:func:`complexes._runs`), and the facet bitmasks of
:func:`complexes._facet_masks` tell the boundary ones.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .complexes import (
    Triangulation,
    _apex_sides,
    _facet_masks,
    _ridge_rows,
    _runs,
    index_rows,
    signed_volumes,
    simplex_costs,
)
from .geometry import PointConfiguration, ambient_normalized_volume

CANDIDATE_GUARD = 10**4


@dataclass(frozen=True)
class SearchProblem:
    """ValueError, before any search, for an objective other than
    ``weighted`` and ``cardinality``, a dimension below 1 or past
    ``CANDIDATE_GUARD`` (d+1)-subsets."""

    config: PointConfiguration
    objective: str = "weighted"  # weighted | cardinality

    def __post_init__(self):
        if self.objective not in ("weighted", "cardinality"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.config.dim < 1:
            raise ValueError(f"dimension {self.config.dim} is below 1")
        pool = math.comb(len(self.config.points), self.config.dim + 1)
        if pool > CANDIDATE_GUARD:
            raise ValueError(f"candidate pool {pool} exceeds guard {CANDIDATE_GUARD}")


class _Enumerator:
    def __init__(self, config: PointConfiguration):
        self.pts = config.points
        self.d = config.dim
        self.expected = ambient_normalized_volume(config.label)
        # Any vertex can anchor the starting cells; the search uses vertex 0.
        self.anchor = 0
        n = len(self.pts)
        combos = np.array(list(itertools.combinations(range(n), self.d + 1)), np.intp)
        signed = signed_volumes(self.pts, combos)
        live = np.flatnonzero(signed)
        self.signed = signed[live]
        self.cand_rows = combos[live]
        self.vols = np.abs(self.signed).tolist()
        # Ridge k = i (d+1) + j is candidate i without its position j, in the
        # index dtype, as in the certificate. Its runs of equal ridges list
        # them together, candidates ascending; a ridge is named by its rank
        # in lexicographic order, so the smallest open one is the first.
        d1 = self.d + 1
        simp = index_rows(self.cand_rows, n)
        flat = _ridge_rows(simp, np.arange(len(simp) * d1))
        order, starts = _runs(list(flat.T), len(flat))
        cuts = np.flatnonzero(starts)
        self.ridge_rows = flat[order[cuts[:-1]]]
        rank = np.empty(len(order), dtype=np.intp)
        rank[order] = np.cumsum(starts[:-1]) - 1
        # ridge -> {candidate: side of the candidate's apex}, candidates
        # ascending: the run of ridge r in sorted order
        owner = (order // d1).tolist()
        side = _apex_sides(self.signed, self.d).ravel()[order].tolist()
        cuts = cuts.tolist()
        self.sides = [
            dict(zip(owner[a:b], side[a:b])) for a, b in zip(cuts, cuts[1:])
        ]
        # A ridge is on the boundary when its vertices share a facet.
        masks = _facet_masks(config)[self.ridge_rows]
        boundary = np.bitwise_and.reduce(masks, axis=1).any(axis=1)
        self.boundary = boundary.tolist()
        # candidate -> ranks of its ridges: all, off the boundary, on it
        faces = rank.reshape(-1, d1)
        outer = boundary[faces]
        split = (d1 - outer.sum(axis=1)).tolist()
        faces = np.take_along_axis(faces, np.argsort(outer, axis=1, kind="stable"), 1)
        self.ridges = [
            (frozenset(f), f[:k], f[k:]) for f, k in zip(faces.tolist(), split)
        ]
        # the search's cost model, exhaustive until :meth:`minimum` sets it:
        # candidate costs, the least of them, r = rate[0] / rate[1] and the
        # best total so far
        self.costs = [0] * len(self.cand_rows)
        self.least = 0
        self.rate = (0, 1)
        self.best = math.inf

    def _generic_direction(self):
        """Starting cells: the cells at the anchor whose tangent cone holds
        a generic direction g.

        With the point anchor + g in place of a cell vertex r other than the
        anchor, the cell's signed volume is scaled by x_r, the coordinate of
        g along the edge from the anchor to r, so a census of those
        simplices gives the sign of every x_r. A simplex's signed volume is
        affine in each vertex and zero with that vertex at the anchor, so
        linear in g. The direction is g = base + eps w for an infinitesimal
        eps > 0, with base the offset of the centroid from the anchor (times
        n) and w = (1, 3, 9, ...): one census with anchor + base and
        anchor + w in place gives x(base) and x(w), and the sign of x_r is
        that of x(base)_r, or of x(w)_r where x(base)_r is 0. base alone is
        not generic on symmetric configurations such as cube(3). Where both
        are 0, g is not generic for any eps: ArithmeticError."""
        n = len(self.pts)
        v0 = self.pts[self.anchor]
        base = [sum(p[j] for p in self.pts) - n * v0[j] for j in range(self.d)]
        step = [3**j for j in range(self.d)]
        starters = np.flatnonzero((self.cand_rows == self.anchor).any(axis=1))
        rows = self.cand_rows[starters]
        # Row k: starter k // d with its (k % d)-th vertex other than the
        # anchor replaced by point n (anchor + base), then the same rows
        # with point n + 1 (anchor + w).
        moved = rows[rows != self.anchor]
        swapped = np.repeat(rows, self.d, axis=0)
        at = swapped == moved[:, None]
        both = np.concatenate([np.where(at, n, swapped), np.where(at, n + 1, swapped)])
        points = self.pts + tuple(tuple(map(sum, zip(v0, u))) for u in (base, step))
        orient = np.repeat(np.sign(self.signed[starters]), self.d)
        x_base, x_step = signed_volumes(points, both).reshape(2, -1) * orient
        x = np.where(x_base != 0, x_base, x_step)
        if not x.all():
            raise ArithmeticError("no generic direction found")
        return starters[(x > 0).reshape(-1, self.d).all(axis=1)].tolist()

    def enumerate(self) -> Iterator[list[int]]:
        for chosen, _ in self._search():
            yield chosen

    def minimum(self, costs: list[int]) -> tuple[int, list[int]]:
        """The least total of ``costs`` (positive) over the triangulations,
        and the first triangulation in enumeration order that reaches it.
        Leaves the enumerator bounded by that total."""
        rn, rd = costs[0], self.vols[0]
        for c, v in zip(costs, self.vols):
            if c * rd < rn * v:
                rn, rd = c, v
        self.costs, self.least, self.rate = costs, min(costs), (rn, rd)
        witness = None
        for chosen, total in self._search():
            witness, self.best = chosen, total
        if witness is None:
            raise ValueError("no triangulation found (inconsistent configuration)")
        return self.best, witness

    def _search(self) -> Iterator[tuple[list[int], int]]:
        return self._extend([], ({}, frozenset(), 0), self._generic_direction())

    def _after(self, state, new: int):
        """The state (open ridge -> its one cell, full ridges, volume) once
        candidate ``new`` joins, or None when one of its ridges is full (an
        interior ridge in two cells, a facet ridge in one), it lies on a
        ridge's side with that ridge's owner, or the open ridges exceed the
        volume left: each needs one more cell, which closes at most d+1 of
        them and has normalized volume at least 1."""
        open_ridges, full, volume = state
        faces, inner, outer = self.ridges[new]
        if not full.isdisjoint(faces):
            return None
        met = [r for r in inner if r in open_ridges]
        for r in met:
            sides = self.sides[r]
            if sides[open_ridges[r]] == sides[new]:
                return None
        volume += self.vols[new]
        n_open = len(open_ridges) + len(inner) - 2 * len(met)
        if volume + (n_open + self.d) // (self.d + 1) > self.expected:
            return None
        out = dict(open_ridges)
        for r in met:
            del out[r]
        out.update((r, new) for r in inner if r not in open_ridges)
        return out, full.union(met, outer), volume

    def _extend(
        self, chosen: list[int], state, cands, spent: int = 0
    ) -> Iterator[tuple[list[int], int]]:
        """Every completion of ``chosen``, whose cells cost ``spent``, by one
        of ``cands`` and then, cell by cell, across the lexicographically
        first open ridge, with its total cost. The cells still to come cost
        an integer R of at least r (expected - volume), so at least its
        ceiling, and at least the least cost times ceil(open / (d+1)), the
        cells the open ridges still need. A branch is cut when spent plus
        the larger bound reaches best, and a leaf is kept only below
        ``self.best``, which the caller may lower between leaves."""
        rn, rd = self.rate
        for ci in cands:
            after = self._after(state, ci)
            if after is None:
                continue
            open_ridges, _, volume = after
            cost = spent + self.costs[ci]
            if open_ridges:
                rest = max(
                    -(-rn * (self.expected - volume) // rd),
                    self.least * -(-len(open_ridges) // (self.d + 1)),
                )
                if cost + rest < self.best:
                    first = self.sides[min(open_ridges)]
                    yield from self._extend(chosen + [ci], after, first, cost)
            elif volume != self.expected:
                raise AssertionError("closed complex does not fill the polytope")
            elif cost < self.best:
                yield chosen + [ci], cost


def enumerate_triangulations(problem: SearchProblem) -> Iterator[Triangulation]:
    """Every face-to-face triangulation of the configuration, exactly once."""
    enum = _Enumerator(problem.config)
    for chosen in enum.enumerate():
        yield Triangulation(problem.config, enum.cand_rows[sorted(chosen)])


def min_weighted_size(
    problem: SearchProblem,
) -> tuple[Fraction, Triangulation]:
    """Minimum of the objective over all triangulations, with a witness:
    the first minimal triangulation in enumeration order."""
    enum = _Enumerator(problem.config)
    if problem.objective == "cardinality":
        costs, den = [1] * len(enum.cand_rows), 1
    else:
        costs, den = simplex_costs(problem.config, enum.cand_rows)
    total, chosen = enum.minimum(costs)
    witness = Triangulation(problem.config, enum.cand_rows[sorted(chosen)])
    return Fraction(total, den), witness


def count_triangulations(problem: SearchProblem) -> int:
    return sum(1 for _ in enumerate_triangulations(problem))
