"""Triangulations: representation, exact validity checking, and accounting.

A simplex is a sorted tuple of indices into a :class:`PointConfiguration`;
a triangulation is a configuration plus a list of such tuples. Validity is
decided exactly on vertex coordinates:

* dissection = volumes sum to the ambient volume and all pairs of cells
  have disjoint interiors;
* face-to-face = for every pair, conv(S1) ∩ conv(S2) = conv(S1 ∩ S2).

Both pair scans use the certificate-first predicates of :mod:`linalg`,
with each simplex's barycentric rows computed once per scan. Every volume
total goes through one census, :func:`volume_census`: batched integer
determinants over fixed-size chunks of index rows.

A cheaper ridge-based mode is available for quick scans; the pairwise test
remains the authoritative oracle.

Files hold one simplex per line (:class:`TriangulationWriter`), so a step
too large to keep in memory is written chunk by chunk in the same format.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TextIO

import numpy as np

from . import linalg
from .geometry import (
    Label,
    PointConfiguration,
    ProductLabel,
    SimplexLabel,
    CubeLabel,
    ambient_normalized_volume,
    config_from_label,
    facet_inequalities,
    normalized_volume,
    parse_label,
)

Simplex = tuple[int, ...]


@dataclass
class Triangulation:
    config: PointConfiguration
    simplices: tuple[Simplex, ...]

    def __post_init__(self):
        self.simplices = tuple(tuple(sorted(s)) for s in self.simplices)

    @property
    def size(self) -> int:
        return len(self.simplices)

    def points_of(self, s: Simplex) -> list[tuple[int, ...]]:
        pts = self.config.points
        return [pts[i] for i in s]

    def volume_of(self, s: Simplex) -> int:
        return normalized_volume(self.points_of(s))


@dataclass(frozen=True)
class SimplexType:
    t: tuple[int, ...]

    @property
    def weight(self) -> Fraction:
        w = Fraction(1)
        for ti in self.t:
            w /= math.factorial(ti)
        return w


@dataclass
class Violation:
    kind: str
    members: tuple
    detail: str = ""

    def __repr__(self):
        return f"Violation({self.kind}, {self.members}, {self.detail})"


@dataclass
class ValidityReport:
    is_dissection: bool
    is_face_to_face: bool
    volume_total: int
    violations: list[Violation] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.is_dissection


def expected_volume(config: PointConfiguration) -> int | None:
    if config.label is None:
        return None
    return ambient_normalized_volume(config.label)


CENSUS_CHUNK = 8192  # rows per batch: bounds the census's working memory


def volume_census(points, rows) -> tuple[int, list[int]]:
    """The volume census: (sum of normalized volumes, positions of the
    zero-volume rows) for full-dimensional simplices given as index rows
    into ``points``.

    Exact batched determinants (:func:`linalg.batch_abs_det`), taken over
    chunks of ``CENSUS_CHUNK`` rows so that the working arrays stay small
    however many rows there are.
    """
    pts = np.asarray(points, dtype=np.int64)
    total = 0
    degenerate: list[int] = []
    for start in range(0, len(rows), CENSUS_CHUNK):
        coords = pts[np.asarray(rows[start : start + CENSUS_CHUNK], dtype=np.int64)]
        vols = linalg.batch_abs_det(coords[:, 1:, :] - coords[:, :1, :]).tolist()
        total += sum(vols)
        degenerate.extend(start + i for i, v in enumerate(vols) if v == 0)
    return total, degenerate


def volume_total(tri: Triangulation) -> int:
    """Exact total normalized volume of a full-dimensional triangulation."""
    return volume_census(tri.config.points, tri.simplices)[0]


def batch_volumes_of(points, simplex_rows) -> tuple[int, int]:
    """(sum of |det|, count of zero dets) for a batch of simplices given as
    index rows into ``points``."""
    total, degenerate = volume_census(points, simplex_rows)
    return total, len(degenerate)


def validate_dissection(
    tri: Triangulation, expected: int | None = None, pairwise: bool = True
) -> ValidityReport:
    """Exact dissection check: volume census plus pairwise interior tests.

    Degenerate simplices are reported as violations, not raised. Set
    ``pairwise=False`` to skip the pair scan (volume census only), e.g.
    when a structural certificate covers it.
    """
    if expected is None:
        expected = expected_volume(tri.config)
    violations: list[Violation] = []
    d = tri.config.dim
    full = []
    for s in tri.simplices:
        if len(s) == d + 1:
            full.append(s)
        else:
            violations.append(Violation("not-full-dimensional", (s,)))
    total, degenerate = volume_census(tri.config.points, full)
    violations.extend(Violation("degenerate", (full[i],)) for i in degenerate)
    if expected is not None and total != expected:
        violations.append(
            Violation("volume-mismatch", (), f"got {total}, expected {expected}")
        )
    seen = set()
    for s in tri.simplices:
        if s in seen:
            violations.append(Violation("duplicate", (s,)))
        seen.add(s)
    if pairwise:
        cells = [tri.points_of(s) for s in tri.simplices]
        bary = [linalg.barycentric_rows(p) for p in cells]
        n = len(cells)
        for i in range(n):
            for j in range(i + 1, n):
                if not linalg.simplices_interiors_disjoint(
                    cells[i], cells[j], bary[i], bary[j]
                ):
                    violations.append(
                        Violation(
                            "interior-overlap", (tri.simplices[i], tri.simplices[j])
                        )
                    )
    ok = not violations
    return ValidityReport(ok, False, total, violations)


def validate_face_to_face(
    tri: Triangulation, expected: int | None = None
) -> ValidityReport:
    """Authoritative pairwise face-to-face check (exact test per pair).

    Two distinct simplices that meet in a common face have disjoint
    interiors, so a passing report is simultaneously a dissection
    certificate.
    """
    if expected is None:
        expected = expected_volume(tri.config)
    base = validate_dissection(tri, expected=expected, pairwise=False)
    violations = list(base.violations)
    cells = [tri.points_of(s) for s in tri.simplices]
    bary = [linalg.barycentric_rows(p) for p in cells]
    n = len(cells)
    for i in range(n):
        si = tri.simplices[i]
        for j in range(i + 1, n):
            sj = tri.simplices[j]
            if si == sj:
                continue  # already reported as duplicate
            if not linalg.simplices_face_to_face(cells[i], cells[j], bary[i], bary[j]):
                violations.append(Violation("not-face-to-face", (si, sj)))
    ok = not violations
    return ValidityReport(ok, ok, base.volume_total, violations)


def ridge_report(tri: Triangulation) -> ValidityReport:
    """Fast local check: every interior ridge in exactly two cells lying on
    opposite sides, boundary ridges on facets of the labeled polytope.

    Sound only together with the volume census (run validate_dissection
    with pairwise=False alongside); the pairwise scan stays authoritative.
    """
    if tri.config.label is None:
        raise ValueError("ridge mode needs a labeled configuration")
    facets = facet_inequalities(tri.config.label)
    pts = tri.config.points
    violations: list[Violation] = []
    ridges: dict[Simplex, list[tuple[Simplex, int]]] = {}
    for s in tri.simplices:
        for drop in s:
            ridge = tuple(i for i in s if i != drop)
            ridges.setdefault(ridge, []).append((s, drop))
    for ridge, owners in ridges.items():
        if len(owners) > 2:
            violations.append(
                Violation("ridge-overused", tuple(o[0] for o in owners))
            )
            continue
        rpts = [pts[i] for i in ridge]
        if len(owners) == 1:
            on_boundary = any(
                all(sum(a * x for a, x in zip(av, p)) == b for p in rpts)
                for av, b in facets
            )
            if not on_boundary:
                violations.append(
                    Violation("open-interior-ridge", (owners[0][0],), str(ridge))
                )
        else:
            (s1, d1), (s2, d2) = owners
            # Opposite strict sides of the ridge hyperplane, via the sign of
            # the (d+1)x(d+1) orientation determinant.
            p0 = rpts[0]
            rows = [[p[j] - p0[j] for j in range(tri.config.dim)] for p in rpts[1:]]
            r1 = rows + [[pts[d1][j] - p0[j] for j in range(tri.config.dim)]]
            r2 = rows + [[pts[d2][j] - p0[j] for j in range(tri.config.dim)]]
            s1sign = linalg.det_bareiss(r1)
            s2sign = linalg.det_bareiss(r2)
            if s1sign == 0 or s2sign == 0 or (s1sign > 0) == (s2sign > 0):
                violations.append(Violation("ridge-same-side", (s1, s2), str(ridge)))
    d = tri.config.dim
    total, _ = volume_census(pts, [s for s in tri.simplices if len(s) == d + 1])
    ok = not violations
    return ValidityReport(ok, ok, total, violations)


def efficiency(size: int, d: int) -> float:
    """(size / d!)^(1/d), for reporting only (never used in predicates)."""
    if size < 1 or d < 1:
        raise ValueError("size and dimension must be positive")
    return math.exp((math.log(size) - math.lgamma(d + 1)) / d)


def simplex_factor(config: PointConfiguration) -> tuple[Label, int]:
    """(P, m) for a configuration of P x simplex(m-1).

    Vertex (p, i) of the product has index p * m + i, so ``idx % m`` is its
    simplex-factor vertex and ``idx // m`` its point of P.
    """
    label = config.label
    if not isinstance(label, ProductLabel) or not isinstance(
        label.right, SimplexLabel
    ):
        raise ValueError("configuration is not a product with a simplex factor")
    return label.left, label.right.k + 1


def factor_blocks(s: Simplex, m: int) -> tuple[tuple[int, ...], ...]:
    """Points of P under each of the m simplex-factor vertices, sorted."""
    blocks: list[list[int]] = [[] for _ in range(m)]
    for idx in s:
        blocks[idx % m].append(idx // m)
    return tuple(tuple(sorted(b)) for b in blocks)


def simplex_type(s: Simplex, config: PointConfiguration) -> SimplexType:
    """Type (t_1, ..., t_m): per simplex-factor vertex counts minus one."""
    _, m = simplex_factor(config)
    counts = [len(b) for b in factor_blocks(s, m)]
    if any(c == 0 for c in counts):
        raise ValueError("full-dimensional simplex must cover every factor vertex")
    return SimplexType(tuple(c - 1 for c in counts))


def weighted_size(tri: Triangulation) -> Fraction:
    """Sum of 1/∏ t_i! over all simplices of a product-with-simplex config."""
    total = Fraction(0)
    for s in tri.simplices:
        total += simplex_type(s, tri.config).weight
    return total


def weighted_efficiency_from(ws: Fraction, l: int, m: int) -> float:
    return math.exp(
        (math.log(ws.numerator) - math.log(ws.denominator) - l * math.log(m)) / l
    )


def weighted_efficiency(tri: Triangulation) -> float:
    """(weighted size / m^l)^(1/l) for triangulations of cube(l) x simplex."""
    left, m = simplex_factor(tri.config)
    if not isinstance(left, CubeLabel):
        raise ValueError("weighted efficiency defined for cube x simplex products")
    return weighted_efficiency_from(weighted_size(tri), left.l, m)


class TriangulationWriter:
    """Writes the triangulation file format incrementally: a header with
    the configuration, then one simplex per line, then a footer."""

    def __init__(self, fh: TextIO, config: PointConfiguration):
        if config.label is None:
            raise ValueError("cannot serialize an unlabeled configuration")
        self.fh = fh
        self.first = True
        fh.write(
            '{"dim": %d, "label": %s, "points": %s, "simplices": [\n'
            % (config.dim, json.dumps(str(config.label)), json.dumps(config.points))
        )

    def write(self, simplices) -> None:
        if not simplices:
            return
        if not self.first:
            self.fh.write(",\n")
        # Simplices hold only integers, so "], [" occurs only between two.
        self.fh.write(json.dumps(simplices)[1:-1].replace("], [", "],\n["))
        self.first = False

    def close(self) -> None:
        self.fh.write("\n]}\n")


def triangulation_to_json(tri: Triangulation) -> str:
    buf = io.StringIO()
    writer = TriangulationWriter(buf, tri.config)
    writer.write(tri.simplices)
    writer.close()
    return buf.getvalue()


def triangulation_from_json(text: str) -> Triangulation:
    obj = json.loads(text)
    label = parse_label(obj["label"])
    config = config_from_label(label)
    pts = tuple(tuple(p) for p in obj["points"])
    if pts != config.points:
        raise ValueError("points array does not follow the canonical order")
    return Triangulation(config, tuple(tuple(s) for s in obj["simplices"]))
