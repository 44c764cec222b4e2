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
from cubetri.coloring import (
    CellProvenance,
    Coloring,
    _check_inputs,
    product_size,
    triangulate_product,
)
from cubetri import complexes, linalg
from cubetri.complexes import (
    Triangulation,
    ValidityReport,
    Violation,
    _apex_sides,
    _census,
    _pair_scan,
    factor_blocks,
    signed_volumes,
    simplex_factor,
)
from cubetri.geometry import (
    CubeLabel,
    PointConfiguration,
    affine_rank,
    ambient_normalized_volume,
    cube_config,
    facet_inequalities,
    parse_label,
    product_config,
    simplex_config,
)
from cubetri.linalg import det_bareiss, polytopes_interiors_disjoint
from cubetri.oracle import enumerate_triangulations
from cubetri.pipeline import PipelineSpec, build_cube_recursive
from cubetri.staircase import monotone_paths


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
    config = PointConfiguration(parse_label(obj["label"]))
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


def reference_validate_dissection(tri: Triangulation) -> ValidityReport:
    """``validate_dissection`` without the ridge certificate: the census and
    the exact pair scan on every input. The reference it is held to."""
    return _pair_scan(tri, _census(tri), face_to_face=False)


def reference_validate_face_to_face(tri: Triangulation) -> ValidityReport:
    """``validate_face_to_face`` without the ridge certificate: the census
    and the exact pair scan on every input. The pairwise oracle the ridge
    certificate is held to."""
    return _pair_scan(tri, _census(tri), face_to_face=True)


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


def level_dtype(c: int, n: int, level: int):
    """The dtype of level ``level`` (1..n) of :func:`linalg.batch_last_det`'s
    work on n x n matrices with entries |a| <= c, for the kernel that the
    current ``linalg.MINOR_MAX_N`` picks (:func:`eliminating` lowers it),
    from :func:`linalg._level_dtypes`; level 1 is :func:`linalg.exact_dtype`,
    the block's."""
    return linalg._level_dtypes(c, n, n <= linalg.MINOR_MAX_N)[level - 1]


def path_edges(n: int, level: int | None = None) -> list[int]:
    """The last entry bound c for which :func:`level_dtype` puts level
    ``level`` (default n, the widest) of n x n matrices in int8 and the
    first past it, then the same for int16, int32 and int64: eight bounds,
    nondecreasing."""
    dtypes = (np.int8, np.int16, np.int32, np.int64)
    level = level or n
    edges = []
    for width in range(1, 5):
        lo, hi = 0, 2**64  # lo's dtype is in dtypes[:width], hi's not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            ok = level_dtype(mid, n, level) in dtypes[:width]
            lo, hi = (mid, hi) if ok else (lo, mid)
        edges += [lo, hi]
    return edges


def eliminating():
    """A context in which ``linalg.MINOR_MAX_N`` is 0, so that
    :func:`linalg.batch_last_det` eliminates at every order and
    :func:`linalg.exact_dtype` guards the elimination."""
    return mock.patch.object(linalg, "MINOR_MAX_N", 0)


def census_batches(monkeypatch, rows: int) -> None:
    """Make :func:`complexes.census_batch` give ``rows`` at every d: the
    expansion's slice, which it gives up to ``linalg.MINOR_MAX_N``, and
    the elimination's chunk alike."""
    monkeypatch.setattr(linalg, "MINOR_SLICE", rows)
    monkeypatch.setattr(complexes, "CENSUS_CHUNK", rows)


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


def reference_cell_records(t_q: Triangulation, t0: Triangulation, coloring: Coloring):
    """The ``provenance()`` of ``ProductCells`` by the per-signature rule:
    one pass over the per-color count vectors of T_Q's sigmas in
    ascending order and, in each, over the T_0 cells whose absent colors'
    blocks are one vertex each, a cell's count the product of its blocks'
    ``len(monotone_paths(l, k))``; then one pass over the sigmas, each
    with the cells of its count vector at their offsets in its run. The
    reference for the pair arrays of ``ProductCells``."""
    m = _check_inputs(t_q, t0, coloring)
    counts = [
        tuple(sum(coloring.colors[q] == i for q in sigma) for i in range(m))
        for sigma in t_q.simplices
    ]
    runs = {}  # count vector -> (its cells, as (tau, rows, offset, count), size)
    for key in sorted(set(counts)):
        present = [i for i in range(m) if key[i]]
        kvec = tuple(key[i] for i in present)
        cells, offset = [], 0
        for t_idx, blocks in enumerate(t0.blocks):
            if any(len(blocks[i]) != 1 for i in range(m) if not key[i]):
                continue
            rows = tuple(blocks[i] for i in present)
            lvec = tuple(map(len, rows))
            count = math.prod(len(monotone_paths(l, k)) for l, k in zip(lvec, kvec))
            cells.append((t_idx, rows, offset, count))
            offset += count
        runs[key] = cells, offset
    provenance, start = [], 0
    for sigma, key in zip(t_q.simplices, counts):
        by_color = sorted(sigma, key=lambda q: (coloring.colors[q], q))
        bounds = list(itertools.accumulate(k for k in key if k))
        cols = tuple(tuple(by_color[a:b]) for a, b in zip([0] + bounds, bounds))
        cells, size = runs[key]
        for t_idx, rows, offset, count in cells:
            a = start + offset
            provenance.append(CellProvenance(sigma, t_idx, rows, cols, a, a + count))
        start += size
    return provenance


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
        # a ridge is on the boundary when all its points satisfy one facet
        # inequality with equality, one ridge at a time
        facets = facet_inequalities(config.label)
        self.boundary = {
            ridge
            for ridge in self.by_ridge
            if any(
                all(sum(a * x for a, x in zip(av, self.pts[i])) == b for i in ridge)
                for av, b in facets
            )
        }
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


# -- weights, one cell at a time: the references for complexes.simplex_costs --


def _blocks_weight(blocks) -> Fraction:
    """1/∏ t_i! over blocks of t_i + 1 points each."""
    return Fraction(1, math.prod(math.factorial(len(b) - 1) for b in blocks))


def type_weight(s, config: PointConfiguration) -> Fraction:
    """The weight of a simplex of P x simplex(m-1): its type (t_1, ...,
    t_m) is its block sizes minus one."""
    return _blocks_weight(factor_blocks(s, simplex_factor(config)[1]))


def mixed_weighted_size(sub: MixedSubdivision) -> Fraction:
    """Sum over the cells of ∏ 1/(dim B_i)!, from the summands alone."""
    return sum((_blocks_weight(cell.summands) for cell in sub.cells), Fraction(0))


# -- the exhaustive minimum: the reference for the oracle's branch-and-bound --


def reference_min_weighted_size(problem) -> tuple[Fraction, Triangulation]:
    """The oracle's minimum by exhaustion: the objective of every
    enumerated triangulation as a sum of ``Fraction`` weights, 1/l! per
    cell of cube(l) and 1/∏ t_i! per cell of a product, the first minimal
    triangulation as the witness."""
    config = problem.config

    @functools.cache
    def weight(s):
        if isinstance(config.label, CubeLabel):
            return Fraction(1, math.factorial(config.label.l))
        return type_weight(s, config)

    best = witness = None
    for tri in enumerate_triangulations(problem):
        if problem.objective == "cardinality":
            value = Fraction(tri.size)
        else:
            value = sum(map(weight, tri.simplices), Fraction(0))
        if best is None or value < best:
            best, witness = value, tri
    if best is None:
        raise ValueError("no triangulation found (inconsistent configuration)")
    return best, witness
