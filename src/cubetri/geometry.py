"""Lattice point configurations for cubes, simplices, products, and sums.

Canonical vertex orders, fixed once and referenced by every construction:

* ``cube(l)``: {0,1}^l enumerated as a binary counter, first coordinate most
  significant (equivalently, lexicographic order of coordinate tuples).
* ``simplex(k)``: the unimodular model conv{0, e_1, ..., e_k} in Z^k, origin
  first, then e_1, ..., e_k.
* ``product(A, B)``: concatenated coordinates, ordered lexicographically by
  (A index, B index). For two cubes this coincides with the canonical order
  of the combined cube.
* ``minkowski(cube(l), m)``: all lattice points of [0, m]^l, lexicographic.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from dataclasses import dataclass

from .linalg import det_bareiss, rank_int

Point = tuple[int, ...]


@dataclass(frozen=True)
class CubeLabel:
    l: int

    @property
    def dim(self) -> int:
        return self.l

    def __str__(self) -> str:
        return f"cube({self.l})"


@dataclass(frozen=True)
class SimplexLabel:
    k: int

    @property
    def dim(self) -> int:
        return self.k

    def __str__(self) -> str:
        return f"simplex({self.k})"


@dataclass(frozen=True)
class ProductLabel:
    left: "Label"
    right: "Label"

    @property
    def dim(self) -> int:
        return self.left.dim + self.right.dim

    def __str__(self) -> str:
        return f"{self.left}x{self.right}"


@dataclass(frozen=True)
class MinkowskiLabel:
    l: int
    m: int  # number of cube(l) summands

    @property
    def dim(self) -> int:
        return self.l

    def __str__(self) -> str:
        return f"minkowski(cube({self.l}),{self.m})"


Label = CubeLabel | SimplexLabel | ProductLabel | MinkowskiLabel

_LABEL_RE = re.compile(
    r"^(cube\((\d+)\)|simplex\((\d+)\)|minkowski\(cube\((\d+)\),(\d+)\))"
)


def parse_label(s: str) -> Label:
    s = s.strip()
    m = _LABEL_RE.match(s)
    if not m:
        raise ValueError(f"unsupported label: {s!r}")
    head = m.group(1)
    rest = s[len(head) :]
    if head.startswith("cube"):
        lab: Label = CubeLabel(int(m.group(2)))
    elif head.startswith("simplex"):
        lab = SimplexLabel(int(m.group(3)))
    else:
        lab = MinkowskiLabel(int(m.group(4)), int(m.group(5)))
    if rest:
        if not rest.startswith("x"):
            raise ValueError(f"unsupported label: {s!r}")
        return ProductLabel(lab, parse_label(rest[1:]))
    return lab


@dataclass
class PointConfiguration:
    """An ordered list of distinct lattice points with an optional label.

    The index order is the canonical total order used by every downstream
    tie-break; instances are treated as immutable.
    """

    label: Label | None
    points: tuple[Point, ...]
    dim: int

    def __len__(self) -> int:
        return len(self.points)


def _cube_points(l: int) -> tuple[Point, ...]:
    return tuple(itertools.product((0, 1), repeat=l))


def _simplex_points(k: int) -> tuple[Point, ...]:
    pts = [tuple(0 for _ in range(k))]
    for i in range(k):
        e = [0] * k
        e[i] = 1
        pts.append(tuple(e))
    return tuple(pts)


def cube_config(l: int) -> PointConfiguration:
    if l < 0:
        raise ValueError("cube dimension must be >= 0")
    return PointConfiguration(CubeLabel(l), _cube_points(l), l)


def simplex_config(k: int) -> PointConfiguration:
    if k < 0:
        raise ValueError("simplex dimension must be >= 0")
    return PointConfiguration(SimplexLabel(k), _simplex_points(k), k)


def product_config(a: PointConfiguration, b: PointConfiguration) -> PointConfiguration:
    if a.label is None or b.label is None:
        raise ValueError("product factors need labels")
    pts = tuple(p + q for p in a.points for q in b.points)
    return PointConfiguration(ProductLabel(a.label, b.label), pts, a.dim + b.dim)


def minkowski_config(l: int, m: int) -> PointConfiguration:
    pts = tuple(itertools.product(range(m + 1), repeat=l))
    return PointConfiguration(MinkowskiLabel(l, m), pts, l)


def config_from_label(label: Label) -> PointConfiguration:
    if isinstance(label, CubeLabel):
        return cube_config(label.l)
    if isinstance(label, SimplexLabel):
        return simplex_config(label.k)
    if isinstance(label, MinkowskiLabel):
        return minkowski_config(label.l, label.m)
    if isinstance(label, ProductLabel):
        return product_config(
            config_from_label(label.left), config_from_label(label.right)
        )
    raise ValueError(f"unsupported label {label}")


def point_count(label: Label) -> int:
    """``len(config_from_label(label).points)`` from the label alone, capped
    at ``sys.maxsize + 1`` (no list is longer) so that no huge power is taken."""
    cap = sys.maxsize + 1
    if isinstance(label, SimplexLabel):
        return min(label.k + 1, cap)
    if isinstance(label, ProductLabel):
        return min(point_count(label.left) * point_count(label.right), cap)
    if not isinstance(label, (CubeLabel, MinkowskiLabel)):
        raise ValueError(f"unsupported label {label}")
    base = 2 if isinstance(label, CubeLabel) else label.m + 1
    return min(base ** min(label.l, cap.bit_length()), cap)


def normalized_volume(vertices: list[Point]) -> int:
    """|det(p_1-p_0, ..., p_d-p_0)| for d+1 points in dimension d.

    Zero exactly when the points are affinely dependent.
    """
    if not vertices:
        raise ValueError("empty vertex list")
    d = len(vertices[0])
    if any(len(p) != d for p in vertices):
        raise ValueError("dimension mismatch among points")
    if len(vertices) != d + 1:
        raise ValueError(f"need {d + 1} points in dimension {d}, got {len(vertices)}")
    p0 = vertices[0]
    rows = [[p[j] - p0[j] for j in range(d)] for p in vertices[1:]]
    return abs(det_bareiss(rows))


def affine_rank(points: list[Point]) -> int:
    """Dimension of the affine hull of a nonempty point list."""
    if not points:
        raise ValueError("empty point list")
    d = len(points[0])
    if any(len(p) != d for p in points):
        raise ValueError("dimension mismatch among points")
    p0 = points[0]
    rows = [[p[j] - p0[j] for j in range(d)] for p in points[1:]]
    return rank_int(rows)


def ambient_normalized_volume(label: Label) -> int:
    """Normalized volume (d! times Euclidean volume) of the labeled polytope."""
    if isinstance(label, CubeLabel):
        return math.factorial(label.l)
    if isinstance(label, SimplexLabel):
        return 1
    if isinstance(label, MinkowskiLabel):
        return label.m**label.l * math.factorial(label.l)
    if isinstance(label, ProductLabel):
        da, db = label.left.dim, label.right.dim
        return (
            math.comb(da + db, da)
            * ambient_normalized_volume(label.left)
            * ambient_normalized_volume(label.right)
        )
    raise ValueError(f"unsupported label {label}")


def facet_inequalities(label: Label) -> list[tuple[tuple[int, ...], int]]:
    """Facets of the labeled polytope as pairs (a, b) meaning a·x <= b."""
    if isinstance(label, CubeLabel):
        out = []
        for i in range(label.l):
            e = [0] * label.l
            e[i] = 1
            out.append((tuple(e), 1))
            out.append((tuple(-v for v in e), 0))
        return out
    if isinstance(label, SimplexLabel):
        k = label.k
        out = []
        for i in range(k):
            e = [0] * k
            e[i] = -1
            out.append((tuple(e), 0))
        if k >= 1:
            out.append((tuple(1 for _ in range(k)), 1))
        return out
    if isinstance(label, MinkowskiLabel):
        out = []
        for i in range(label.l):
            e = [0] * label.l
            e[i] = 1
            out.append((tuple(e), label.m))
            out.append((tuple(-v for v in e), 0))
        return out
    if isinstance(label, ProductLabel):
        da, db = label.left.dim, label.right.dim
        out = []
        for a, b in facet_inequalities(label.left):
            out.append((a + tuple(0 for _ in range(db)), b))
        for a, b in facet_inequalities(label.right):
            out.append((tuple(0 for _ in range(da)) + a, b))
        return out
    raise ValueError(f"unsupported label {label}")


def as_cube_if_product_of_cubes(label: Label) -> Label:
    """Collapse product(cube, cube) labels; point orders coincide exactly."""
    if isinstance(label, ProductLabel):
        left = as_cube_if_product_of_cubes(label.left)
        right = as_cube_if_product_of_cubes(label.right)
        if isinstance(left, CubeLabel) and isinstance(right, CubeLabel):
            return CubeLabel(left.l + right.l)
        return ProductLabel(left, right)
    return label
