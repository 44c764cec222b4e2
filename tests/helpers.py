"""Shared helpers for the test suite."""

import functools
import itertools
import json
import math
from fractions import Fraction
from typing import Iterator
from unittest import mock

import numpy as np

from cubetri.cayley import MixedCell, MixedSubdivision, mixed_to_triangulation
from cubetri.coloring import Coloring, product_size, triangulate_product
from cubetri import linalg
from cubetri.complexes import (
    Triangulation,
    ValidityReport,
    Violation,
    _apex_sides,
    _census,
    _pair_scan,
    expected_volume,
    facet_incidence,
    signed_volumes,
)
from cubetri.geometry import (
    PointConfiguration,
    affine_rank,
    ambient_normalized_volume,
    config_from_label,
    cube_config,
    parse_label,
    product_config,
    simplex_config,
)
from cubetri.linalg import det_bareiss, exact_dtype, polytopes_interiors_disjoint
from cubetri.pipeline import PipelineSpec, build_cube_recursive


def two_triangle_prism() -> Triangulation:
    """The two-cell triangulation of segment x segment, as a triangulation
    of cube(1) x simplex(1)."""
    sub = MixedSubdivision(
        cube_config(1),
        2,
        (MixedCell(((0, 1), (1,))), MixedCell(((0,), (0, 1)))),
    )
    return mixed_to_triangulation(sub)


def cube_as_point_product(tri: Triangulation) -> Triangulation:
    """Reinterpret a cube triangulation as cube(l) x simplex(0)."""
    cfg = product_config(cube_config(tri.config.dim), simplex_config(0))
    return Triangulation(cfg, tri.simplices)


def enumerated_expected_size(t_q: Triangulation, t0: Triangulation, m: int) -> Fraction:
    """The average of ``product_size`` over every coloring of Q's vertices:
    the reference for the multinomial sum of ``exact_expected_size``."""
    nv = len(t_q.config.points)
    total = sum(
        product_size(t_q, t0, Coloring(colors, m))
        for colors in itertools.product(range(m), repeat=nv)
    )
    return Fraction(total, m**nv)


def reference_to_json(config, simplices) -> str:
    """The triangulation file format written with ``json.dumps``: the
    reference for the writer's table encoding."""
    body = json.dumps([list(s) for s in simplices])[1:-1].replace("], [", "],\n[")
    return (
        '{"dim": %d, "label": %s, "points": %s, "simplices": [\n%s\n]}\n'
        % (config.dim, json.dumps(str(config.label)), json.dumps(config.points), body)
    )


def reference_from_json(text: str) -> Triangulation:
    """The ``json.loads`` reader, with the index validation of
    ``triangulation_from_json``: the reference for its array reader."""
    obj = json.loads(text)
    if type(obj) is not dict or not {"dim", "label", "points", "simplices"} <= obj.keys():
        raise ValueError("not a triangulation file")
    if type(obj["label"]) is not str:
        raise ValueError("label is not a string")
    config = config_from_label(parse_label(obj["label"]))
    if tuple(tuple(p) for p in obj["points"]) != config.points:
        raise ValueError("points array does not follow the canonical order")
    if type(obj["dim"]) is not int or obj["dim"] != config.dim:
        raise ValueError("dim is not the label's")
    n = len(config.points)
    for s in obj["simplices"]:
        for i in s:
            if type(i) is not int or not 0 <= i < n:
                raise ValueError(f"bad simplex index {i!r}")
    return Triangulation(config, tuple(tuple(s) for s in obj["simplices"]))


def reference_validate_dissection(
    tri: Triangulation, expected: int | None = None
) -> ValidityReport:
    """``validate_dissection`` without the ridge certificate: the census and
    the exact pair scan on every input. The reference it is held to."""
    if expected is None:
        expected = expected_volume(tri.config)
    return _pair_scan(tri, _census(tri, expected), face_to_face=False)


def reference_validate_face_to_face(
    tri: Triangulation, expected: int | None = None
) -> ValidityReport:
    """``validate_face_to_face`` without the ridge certificate: the census
    and the exact pair scan on every input. The pairwise oracle the ridge
    certificate is held to."""
    if expected is None:
        expected = expected_volume(tri.config)
    return _pair_scan(tri, _census(tri, expected), face_to_face=True)


# -- the default pipeline outputs and their pairwise verdicts ----------------

_face_to_face = linalg.simplices_face_to_face
FACE_TO_FACE_VERDICTS: dict = {}


def memo_face_to_face(pts_a, pts_b, bary_a=None, bary_b=None):
    """``linalg.simplices_face_to_face`` memoized in ``FACE_TO_FACE_VERDICTS``,
    keyed on the two vertex-coordinate tuples. The predicate is a function
    of the coordinates alone, so no verdict changes, and a tampered copy of
    an output reuses the verdicts of the pairs it keeps."""
    key = (tuple(pts_a), tuple(pts_b))
    hit = FACE_TO_FACE_VERDICTS.get(key)
    if hit is None:
        hit = FACE_TO_FACE_VERDICTS[key] = _face_to_face(pts_a, pts_b, bary_a, bary_b)
    return hit


@functools.cache
def small_default_builds() -> dict:
    """d -> (triangulation, report) of ``build_cube_recursive`` on the
    default spec (samples=3, rng_seed=1) for d = 4, 5, 6, built once."""
    return {
        d: build_cube_recursive(PipelineSpec(dim=d, samples=3, rng_seed=1))
        for d in (4, 5, 6)
    }


@functools.cache
def small_default_references() -> dict:
    """d -> ``reference_validate_face_to_face`` of each small default
    build, run once (the d=6 pair scan takes seconds) through
    :func:`memo_face_to_face`."""
    with mock.patch.object(linalg, "simplices_face_to_face", memo_face_to_face):
        return {
            d: reference_validate_face_to_face(tri)
            for d, (tri, _) in small_default_builds().items()
        }


def path_edges(n: int) -> list[int]:
    """The last entry bound c that :func:`linalg.exact_dtype` sends to int32
    for n x n matrices, the first past it, and the same for int64."""
    edges = []
    for ok in ((np.int32,), (np.int32, np.int64)):
        lo, hi = 0, 2**64  # exact_dtype(lo, n) is in ok, exact_dtype(hi, n) not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if exact_dtype(mid, n) in ok else (lo, mid)
        edges += [lo, hi]
    return edges


# -- mixed cells realized as polytopes: the reference for validate_mixed ----


def _cell_edges(base: PointConfiguration, cell: MixedCell):
    """Edge vectors of the distinct summands, with multiplicities.

    Returns (edges, groups) where groups lists (multiplicity, dim) per
    distinct summand; repeated summands arise from scaled subdivisions and
    contribute a dilation factor, not new directions.
    """
    pts = base.points
    counts: dict = {}
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
    det = abs(det_bareiss(edges))
    vol = Fraction(det * math.factorial(l))
    for mult, t in groups:
        vol = vol * mult**t / math.factorial(t)
    return vol


def cell_points(base: PointConfiguration, cell: MixedCell) -> list[tuple[int, ...]]:
    """All pairwise-sum lattice points of the cell (its V-description)."""
    pts = base.points
    sums = set()
    for combo in itertools.product(*[b for b in cell.summands]):
        total = tuple(sum(pts[i][j] for i in combo) for j in range(base.dim))
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
    if len(edges) != l or abs(det_bareiss(edges)) == 0:
        return "summands not in complementary directions"
    return None


def reference_validate_mixed(sub: MixedSubdivision) -> ValidityReport:
    """The geometric check of mixed cells without the Cayley trick:
    fineness per cell, volume census against m^l * l!, and pairwise
    disjoint interiors of the realized cells by the exact polytope LP."""
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
            if not polytopes_interiors_disjoint(realized[i], realized[j]):
                violations.append(
                    Violation(
                        "interior-overlap",
                        (sub.cells[i].summands, sub.cells[j].summands),
                    )
                )
    ok = not violations
    vt = int(total) if total.denominator == 1 else total
    return ValidityReport(ok, False, vt, violations)


def lift_provenance(t0: Triangulation, kvec):
    """The block lift of ``t0`` by ``kvec``, its cells and its coloring,
    from ``triangulate_product(..., with_provenance=True)``: the product
    with the one simplex of simplex(n-1), its vertices colored k_1 times
    0, then k_2 times 1, and so on."""
    n = sum(kvec)
    t_q = Triangulation(simplex_config(n - 1), (tuple(range(n)),))
    colors = tuple(i for i, k in enumerate(kvec) for _ in range(k))
    coloring = Coloring(colors, len(kvec))
    tri, prov = triangulate_product(t_q, t0, coloring, with_provenance=True)
    return tri, prov, coloring


# -- the LP-pruned search: the reference for the oracle's ridge search -------


class ReferenceEnumerator:
    """The oracle's canonical search pruned by pairwise LPs: a candidate
    joins only when ``linalg.simplices_face_to_face`` finds it face to face
    with every chosen cell. The reference for ``oracle._Enumerator``, which
    tests the ridge conditions instead."""

    def __init__(self, config: PointConfiguration, anchor: int = 0):
        self.pts = config.points
        self.d = config.dim
        self.expected = ambient_normalized_volume(config.label)
        self.anchor = anchor
        n = len(self.pts)
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
