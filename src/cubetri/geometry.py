"""Lattice point configurations for cubes, simplices, products, and sums.

A :class:`PointConfiguration` is a label and nothing else: its points are
the lattice points of the labeled polytope, listed in the label's
canonical order, and its dimension is the label's. The canonical orders
are fixed once and referenced by every construction:

* ``cube(l)``: {0,1}^l enumerated as a binary counter, first coordinate most
  significant (equivalently, lexicographic order of coordinate tuples).
* ``simplex(k)``: the unimodular model conv{0, e_1, ..., e_k} in Z^k, origin
  first, then e_1, ..., e_k.
* ``product(A, B)``: concatenated coordinates, ordered lexicographically by
  (A index, B index). For two cubes this coincides with the canonical order
  of the combined cube.
* ``minkowski(cube(l), m)``: all lattice points of [0, m]^l, lexicographic.

``cube(l)`` is ``minkowski(cube(l), 1)`` under its own name (its ``m`` is
1), so the two share each formula for points, count, volume and facets.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from dataclasses import dataclass, field

from .linalg import det_bareiss, rank_int

Point = tuple[int, ...]


@dataclass(frozen=True)
class CubeLabel:
    l: int

    def __post_init__(self):
        if self.l < 0:
            raise ValueError("cube dimension must be >= 0")

    @property
    def dim(self) -> int:
        return self.l

    @property
    def m(self) -> int:
        return 1  # one cube(l) summand: the unit box [0, 1]^l

    def __str__(self) -> str:
        return f"cube({self.l})"


@dataclass(frozen=True)
class SimplexLabel:
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("simplex dimension must be >= 0")

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

    def __post_init__(self):
        if self.l < 0 or self.m < 0:
            raise ValueError("minkowski dimension and summand count must be >= 0")

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


def _points(label: Label) -> tuple[Point, ...]:
    """The label's lattice points in the canonical order of the module
    docstring."""
    if isinstance(label, (CubeLabel, MinkowskiLabel)):
        return tuple(itertools.product(range(label.m + 1), repeat=label.l))
    if isinstance(label, SimplexLabel):
        k = label.k
        units = tuple(tuple(int(j == i) for j in range(k)) for i in range(k))
        return ((0,) * k,) + units
    if isinstance(label, ProductLabel):
        right = _points(label.right)
        return tuple(p + q for p in _points(label.left) for q in right)
    raise ValueError(f"unsupported label {label}")


@dataclass(frozen=True)
class PointConfiguration:
    """The lattice points of a labeled polytope, in the label's canonical
    order: the total order used by every downstream tie-break.

    ``points`` and ``dim`` follow from the label, so two configurations
    are equal exactly when their labels are.
    """

    label: Label
    points: tuple[Point, ...] = field(init=False, repr=False, compare=False)
    dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "points", _points(self.label))
        object.__setattr__(self, "dim", self.label.dim)

    def __len__(self) -> int:
        return len(self.points)


def cube_config(l: int) -> PointConfiguration:
    return PointConfiguration(CubeLabel(l))


def simplex_config(k: int) -> PointConfiguration:
    return PointConfiguration(SimplexLabel(k))


def product_config(a: PointConfiguration, b: PointConfiguration) -> PointConfiguration:
    return PointConfiguration(ProductLabel(a.label, b.label))


def minkowski_config(l: int, m: int) -> PointConfiguration:
    return PointConfiguration(MinkowskiLabel(l, m))


def point_count(label: Label) -> int:
    """``len(PointConfiguration(label).points)`` from the label alone, capped
    at ``sys.maxsize + 1`` (no list is longer) so that no huge power is taken."""
    cap = sys.maxsize + 1
    if isinstance(label, SimplexLabel):
        return min(label.k + 1, cap)
    if isinstance(label, ProductLabel):
        return min(point_count(label.left) * point_count(label.right), cap)
    if not isinstance(label, (CubeLabel, MinkowskiLabel)):
        raise ValueError(f"unsupported label {label}")
    return min((label.m + 1) ** min(label.l, cap.bit_length()), cap)


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
    if isinstance(label, (CubeLabel, MinkowskiLabel)):
        return label.m**label.l * math.factorial(label.l)
    if isinstance(label, SimplexLabel):
        return 1
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
    if isinstance(label, (CubeLabel, MinkowskiLabel)):
        out = []
        for i in range(label.l):
            e = tuple(int(j == i) for j in range(label.l))
            out += [(e, label.m), (tuple(-v for v in e), 0)]
        return out
    if isinstance(label, SimplexLabel):
        k = label.k
        out = [(tuple(-int(j == i) for j in range(k)), 0) for i in range(k)]
        return out + [((1,) * k, 1)] if k else out
    if isinstance(label, ProductLabel):
        da, db = label.left.dim, label.right.dim
        left = [(a + (0,) * db, b) for a, b in facet_inequalities(label.left)]
        return left + [((0,) * da + a, b) for a, b in facet_inequalities(label.right)]
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
