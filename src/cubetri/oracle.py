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
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from . import linalg
from .complexes import Simplex, Triangulation, simplex_type
from .geometry import (
    CubeLabel,
    PointConfiguration,
    ambient_normalized_volume,
    facet_inequalities,
    normalized_volume,
)

CANDIDATE_GUARD = 10**4


@dataclass
class SearchProblem:
    config: PointConfiguration
    objective: str = "weighted"  # weighted | cardinality


class _Enumerator:
    def __init__(self, config: PointConfiguration, anchor: int = 0):
        self.config = config
        self.pts = config.points
        self.d = config.dim
        self.expected = ambient_normalized_volume(config.label)
        self.anchor = anchor
        n = len(self.pts)
        pool = math.comb(n, self.d + 1)
        if pool > CANDIDATE_GUARD:
            raise ValueError(f"candidate pool {pool} exceeds guard {CANDIDATE_GUARD}")
        cands = []
        vols = []
        for combo in itertools.combinations(range(n), self.d + 1):
            v = normalized_volume([self.pts[i] for i in combo])
            if v > 0:
                cands.append(combo)
                vols.append(v)
        self.cands = cands
        self.vols = vols
        self.bary = [
            linalg.barycentric_rows([self.pts[i] for i in s]) for s in cands
        ]
        self.by_ridge: dict[tuple, list[int]] = {}
        for ci, s in enumerate(cands):
            for drop in s:
                ridge = tuple(i for i in s if i != drop)
                self.by_ridge.setdefault(ridge, []).append(ci)
        facets = facet_inequalities(config.label)
        self._facets = facets
        self._boundary_cache: dict[tuple, bool] = {}
        self._side_cache: dict[tuple, int] = {}
        self._compat: dict[tuple[int, int], bool] = {}

    def _is_boundary(self, ridge: tuple) -> bool:
        hit = self._boundary_cache.get(ridge)
        if hit is None:
            rpts = [self.pts[i] for i in ridge]
            hit = any(
                all(sum(a * x for a, x in zip(av, p)) == b for p in rpts)
                for av, b in self._facets
            )
            self._boundary_cache[ridge] = hit
        return hit

    def _side(self, ridge: tuple, vertex: int) -> int:
        """Sign of the orientation determinant of (ridge, vertex)."""
        key = ridge + (vertex,)
        hit = self._side_cache.get(key)
        if hit is None:
            p0 = self.pts[ridge[0]]
            rows = [
                [self.pts[i][j] - p0[j] for j in range(self.d)] for i in ridge[1:]
            ]
            rows.append([self.pts[vertex][j] - p0[j] for j in range(self.d)])
            det = linalg.det_bareiss(rows)
            hit = (det > 0) - (det < 0)
            self._side_cache[key] = hit
        return hit

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
        for drop in s:
            ridge = tuple(i for i in s if i != drop)
            if ridge in out:
                del out[ridge]
            elif not self._is_boundary(ridge):
                out[ridge] = (new, drop)
        return out

    def _extend(self, chosen: list[int], open_ridges: dict) -> Iterator[list[int]]:
        if not open_ridges:
            total = sum(self.vols[c] for c in chosen)
            if total != self.expected:
                raise AssertionError("closed complex does not fill the polytope")
            yield list(chosen)
            return
        ridge = min(open_ridges)
        owner, opp = open_ridges[ridge]
        owner_side = self._side(ridge, opp)
        for ci in self.by_ridge.get(ridge, ()):
            if ci == owner:
                continue
            extra = next(i for i in self.cands[ci] if i not in ridge)
            if self._side(ridge, extra) * owner_side >= 0:
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
        simplices = tuple(enum.cands[c] for c in sorted(chosen))
        yield Triangulation(problem.config, simplices)


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
