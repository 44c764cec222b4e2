"""Exhaustive triangulation enumeration on tiny configurations.

Replaces integer programming over the universal polytope at desk scale:
every face-to-face triangulation of the configuration is produced exactly
once by a canonical ridge-driven backtracking search, and minima of weight
functionals are certified by exhaustion.

Canonical enumeration: each triangulation contains exactly one cell whose
tangent cone at the anchor vertex contains a fixed generic direction; the
search branches over those starting cells, then repeatedly completes the
lexicographically first open ridge. Both steps are deterministic, so the
leaves of the search tree biject with the triangulations.

The search takes no determinant of its own: one census of every
(d+1)-subset (:func:`complexes.signed_volumes`) gives the candidates, their
volumes and, by :func:`complexes._apex_sides`, their ridge sides;
:func:`complexes.facet_incidence` gives the boundary ridges.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from . import linalg
from .complexes import (
    Simplex,
    Triangulation,
    _apex_sides,
    facet_incidence,
    signed_volumes,
    simplex_type,
)
from .geometry import CubeLabel, PointConfiguration, ambient_normalized_volume

CANDIDATE_GUARD = 10**4


@dataclass
class SearchProblem:
    config: PointConfiguration
    objective: str = "weighted"  # weighted | cardinality


class _Enumerator:
    def __init__(self, config: PointConfiguration, anchor: int = 0):
        self.pts = config.points
        self.d = config.dim
        self.expected = ambient_normalized_volume(config.label)
        self.anchor = anchor
        n = len(self.pts)
        pool = math.comb(n, self.d + 1)
        if pool > CANDIDATE_GUARD:
            raise ValueError(f"candidate pool {pool} exceeds guard {CANDIDATE_GUARD}")
        combos = np.array(list(itertools.combinations(range(n), self.d + 1)), np.intp)
        signed = signed_volumes(self.pts, combos)
        live = np.flatnonzero(signed)
        self.cand_rows = combos[live]
        self.cands = list(map(tuple, self.cand_rows.tolist()))
        self.vols = np.abs(signed[live]).tolist()
        self.bary = [
            linalg.barycentric_rows([self.pts[i] for i in s]) for s in self.cands
        ]
        # ridge -> {candidate: side of the candidate's apex}, candidates ascending
        self.by_ridge: dict[tuple, dict[int, int]] = {}
        sides = _apex_sides(signed[live], self.d).tolist()
        for ci, (s, side) in enumerate(zip(self.cands, sides)):
            for j in range(self.d + 1):
                self.by_ridge.setdefault(s[:j] + s[j + 1 :], {})[ci] = side[j]
        ridges = list(self.by_ridge)
        rows = np.array(ridges, dtype=np.intp).reshape(len(ridges), self.d)
        on_facet = facet_incidence(config)[rows].all(axis=1).any(axis=1)
        self.boundary = set(itertools.compress(ridges, on_facet.tolist()))
        self._compat: dict[tuple[int, int], bool] = {}

    def _compatible(self, a: int, b: int) -> bool:
        key = (a, b) if a < b else (b, a)
        hit = self._compat.get(key)
        if hit is None:
            i, j = key
            hit = linalg.simplices_face_to_face(
                [self.pts[k] for k in self.cands[i]],
                [self.pts[k] for k in self.cands[j]],
                self.bary[i],
                self.bary[j],
            )
            self._compat[key] = hit
        return hit

    def _generic_direction(self):
        """Starting cells: the cells at the anchor whose tangent cone holds
        a generic direction g.

        For a cell vertex r other than the anchor, row r of the cell's
        barycentric rows gives row[:d] . g = |D| x_r, where x_r is the
        coordinate of g along the edge from the anchor to r. g is scaled by
        997 to an integer vector, which keeps every sign. A zero coordinate
        means g is not generic, and the next g is tried.
        """
        n = len(self.pts)
        v0 = self.pts[self.anchor]
        base = [
            sum(p[j] for p in self.pts) - n * v0[j] for j in range(self.d)
        ]
        starters = [ci for ci, s in enumerate(self.cands) if self.anchor in s]
        for attempt in range(200):
            g = [997 * base[j] + attempt * 3**j for j in range(self.d)]
            inside = []
            for ci in starters:
                coords = [
                    sum(a * b for a, b in zip(row[: self.d], g))
                    for i, row in zip(self.cands[ci], self.bary[ci])
                    if i != self.anchor
                ]
                if 0 in coords:
                    break
                if all(c > 0 for c in coords):
                    inside.append(ci)
            else:
                return inside
        raise ArithmeticError("no generic direction found")

    def enumerate(self) -> Iterator[list[int]]:
        starters = self._generic_direction()
        for start in starters:
            yield from self._extend([start], self._open_after({}, start))

    def _open_after(self, open_ridges, new):
        out = dict(open_ridges)
        s = self.cands[new]
        for j in range(self.d + 1):
            ridge = s[:j] + s[j + 1 :]
            if ridge in out:
                del out[ridge]
            elif ridge not in self.boundary:
                out[ridge] = new
        return out

    def _extend(self, chosen: list[int], open_ridges: dict) -> Iterator[list[int]]:
        if not open_ridges:
            total = sum(self.vols[c] for c in chosen)
            if total != self.expected:
                raise AssertionError("closed complex does not fill the polytope")
            yield list(chosen)
            return
        ridge = min(open_ridges)
        sides = self.by_ridge[ridge]
        owner_side = sides[open_ridges[ridge]]
        for ci, side in sides.items():
            # the owner itself is on its own side
            if side == owner_side:
                continue
            if all(self._compatible(ci, cj) for cj in chosen):
                yield from self._extend(
                    chosen + [ci], self._open_after(open_ridges, ci)
                )


def enumerate_triangulations(
    problem: SearchProblem, anchor: int = 0
) -> Iterator[Triangulation]:
    """Every face-to-face triangulation of the configuration, exactly once."""
    enum = _Enumerator(problem.config, anchor=anchor)
    for chosen in enum.enumerate():
        yield Triangulation(problem.config, enum.cand_rows[sorted(chosen)])


def _simplex_weight(config: PointConfiguration, s: Simplex) -> Fraction:
    if isinstance(config.label, CubeLabel):
        return Fraction(1, math.factorial(config.label.l))
    return simplex_type(s, config).weight


def min_weighted_size(
    problem: SearchProblem,
) -> tuple[Fraction, Triangulation]:
    """Minimum of the objective over all triangulations, with a witness."""
    best: Fraction | None = None
    witness: Triangulation | None = None
    # a candidate's weight is fixed: take it once, not once per triangulation
    weight = functools.cache(functools.partial(_simplex_weight, problem.config))
    for tri in enumerate_triangulations(problem):
        if problem.objective == "cardinality":
            value = Fraction(tri.size)
        else:
            value = sum(map(weight, tri.simplices), Fraction(0))
        if best is None or value < best:
            best = value
            witness = tri
    if best is None:
        raise ValueError("no triangulation found (inconsistent configuration)")
    return best, witness


def count_triangulations(problem: SearchProblem, anchor: int = 0) -> int:
    return sum(1 for _ in enumerate_triangulations(problem, anchor=anchor))
