"""Shared helpers for the test suite."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np

from cubetri.cayley import MixedCell, MixedSubdivision, mixed_to_triangulation
from cubetri.coloring import Coloring, product_size, triangulate_product
from cubetri.complexes import Triangulation, ValidityReport, Violation
from cubetri.geometry import (
    PointConfiguration,
    affine_rank,
    config_from_label,
    cube_config,
    parse_label,
    product_config,
    simplex_config,
)
from cubetri.linalg import det_bareiss, exact_dtype, polytopes_interiors_disjoint


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
        product_size(t_q, t0, Coloring(colors, m, "explicit"))
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
    coloring = Coloring(colors, len(kvec), "explicit")
    tri, prov = triangulate_product(t_q, t0, coloring, with_provenance=True)
    return tri, prov, coloring
