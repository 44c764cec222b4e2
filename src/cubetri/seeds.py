"""Catalog of explicit seed objects and known constants.

The two 3-cube seeds are fine mixed subdivisions of [0,2]^3 and [0,3]^3
given by explicit summand lists over the canonical cube(3) vertex order
(binary counter: index i has coordinates given by the bits of i, most
significant first):

    0:(0,0,0) 1:(0,0,1) 2:(0,1,0) 3:(0,1,1)
    4:(1,0,0) 5:(1,0,1) 6:(1,1,0) 7:(1,1,1)

* ``seed_i3d1``: cut the eight corners of [0,2]^3; split the remaining
  cubeoctahedron along its x+y+z=3 equatorial hexagon; each half falls
  into one doubled tetrahedron and three doubled prisms. 10 tetrahedra +
  6 prisms, weighted size 14/3.
* ``seed_i3d2``: two such half-cubeoctahedron ends joined by a hexagonal
  prism of height sqrt(3) (two triangular prisms + two parallelepipeds)
  surrounded by a belt of six prisms and six tetrahedra, plus corner
  prisms and joining tetrahedra at the ends. 20 prisms + 16 tetrahedra +
  2 parallelepipeds, weighted size 44/3.

Both are verified on first construction: the cell census and the weighted
size, then :func:`cayley.validate_mixed`: the ridge certificate of the
Cayley triangulation, which holds exactly when the cells are fine and
partition the target box (the Cayley trick). The square family for any
number of summands is generated as the block lift of the optimal
two-square seed (:func:`coloring.lift_triangulation`, one product of the
template cell engine) and is valid by construction.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .cayley import (
    MixedCell,
    MixedSubdivision,
    mixed_to_triangulation,
    mixed_weighted_size,
    triangulation_to_mixed,
    validate_mixed,
)
from .coloring import lift_triangulation
from .complexes import Simplex, Triangulation
from .geometry import cube_config


def unimodular_cube(d: int) -> Triangulation:
    """The permutation (staircase) triangulation of the d-cube: d! unimodular
    simplices, one chain 0 -> 1 per coordinate order."""
    if not 1 <= d <= 8:
        raise ValueError("unimodular_cube materializes 1 <= d <= 8 only")
    cfg = cube_config(d)
    simplices: list[Simplex] = []
    for perm in itertools.permutations(range(d)):
        v = [0] * d
        chain = [0]
        for axis in perm:
            v[axis] = 1
            chain.append(sum(b << (d - 1 - j) for j, b in enumerate(v)))
        simplices.append(tuple(sorted(chain)))
    return Triangulation(cfg, tuple(simplices))


def minimal_cube(d: int) -> Triangulation:
    """A smallest triangulation of the d-cube for d <= 3 (sizes 1, 2, 5).

    d=3 is the corner-cut: central tetrahedron conv{e1,e2,e3,(1,1,1)} plus
    four corner tetrahedra at the even-parity vertices.
    """
    if d == 1:
        return Triangulation(cube_config(1), ((0, 1),))
    if d == 2:
        return Triangulation(cube_config(2), ((0, 2, 3), (0, 1, 3)))
    if d == 3:
        return Triangulation(
            cube_config(3),
            (
                (1, 2, 4, 7),  # central, volume 2
                (0, 1, 2, 4),
                (2, 4, 6, 7),
                (1, 4, 5, 7),
                (1, 2, 3, 7),
            ),
        )
    raise ValueError("minimal triangulations materialized for d in {1,2,3}")


# -- the two-square seed: one diagonal square plus four corner triangles ---
# cube(2) order: 0:(0,0) 1:(0,1) 2:(1,0) 3:(1,1); copy 1 carries the main
# diagonal (0,3), copy 2 the antidiagonal (1,2).
_SQUARE2_CELLS = (
    ((0, 3), (1, 2)),
    ((0,), (0, 1, 2)),
    ((3,), (1, 2, 3)),
    ((0, 2, 3), (2,)),
    ((0, 1, 3), (1,)),
)


def square_seed_m2() -> MixedSubdivision:
    base = cube_config(2)
    return MixedSubdivision(
        base, 2, tuple(MixedCell(tuple(map(tuple, c))) for c in _SQUARE2_CELLS)
    )


def square_family(m: int) -> MixedSubdivision:
    """Fine mixed subdivision of m unit squares with floor(m^2/4) diagonal
    squares and weighted size ceil(3 m^2 / 4).

    Built as the block lift of the two-square seed by (ceil(m/2),
    floor(m/2)): lifted diamond cells are exactly the pairs of one main
    diagonal and one antidiagonal, so the census is the product of the two
    orientation counts.
    """
    if m < 1:
        raise ValueError("need at least one summand")
    if m == 1:
        base = cube_config(2)
        return MixedSubdivision(
            base, 1, (MixedCell(((0, 2, 3),)), MixedCell(((0, 1, 3),)))
        )
    a, b = (m + 1) // 2, m // 2
    t2 = mixed_to_triangulation(square_seed_m2())
    lifted = lift_triangulation(t2, (a, b))
    return triangulation_to_mixed(lifted)


# -- seed for two cube summands ([0,2]^3) ----------------------------------
_I3D1_CELLS = (
    # corner tetrahedra of the eight corners
    ((0,), (0, 1, 2, 4)),
    ((0, 4, 5, 6), (4,)),
    ((0, 2, 3, 6), (2,)),
    ((0, 1, 3, 5), (1,)),
    ((3, 5, 6, 7), (7,)),
    ((3,), (1, 2, 3, 7)),
    ((5,), (1, 4, 5, 7)),
    ((6,), (2, 4, 6, 7)),
    # lower half of the cubeoctahedron: one doubled tet + three prisms
    ((0, 3, 5, 6), (4,)),
    ((0, 3, 6), (2, 4)),
    ((0, 3, 5), (1, 4)),
    ((0, 3), (1, 2, 4)),
    # upper half: central reflection with the two copies exchanged
    ((3,), (1, 2, 4, 7)),
    ((3, 5), (1, 4, 7)),
    ((3, 6), (2, 4, 7)),
    ((3, 5, 6), (4, 7)),
)

# -- seed for three cube summands ([0,3]^3) --------------------------------
_I3D2_CELLS = (
    # lower end: corner tet, half cubeoctahedron, joining tets, corner prisms
    ((0,), (0, 1, 2, 4), (0,)),
    ((0, 3, 5, 6), (4,), (0,)),
    ((0, 3, 6), (2, 4), (0,)),
    ((0, 3, 5), (1, 4), (0,)),
    ((0, 3), (1, 2, 4), (0,)),
    ((0, 4, 5, 6), (4,), (0,)),
    ((4, 5, 6), (4,), (0, 4)),
    ((0, 2, 3, 6), (2,), (0,)),
    ((2, 3, 6), (2,), (0, 2)),
    ((0, 1, 3, 5), (1,), (0,)),
    ((1, 3, 5), (1,), (0, 1)),
    # middle: hexagonal prism of height sqrt(3) over the equatorial hexagon,
    # split into two triangular prisms and two parallelepipeds
    ((3, 5, 6), (4,), (0, 7)),
    ((3, 6), (2, 4), (0, 7)),
    ((3, 5), (1, 4), (0, 7)),
    ((3,), (1, 2, 4), (0, 7)),
    # belt around the hexagonal prism: six prisms, six tetrahedra
    ((5, 6), (4,), (0, 4, 7)),
    ((3, 6), (2,), (0, 2, 7)),
    ((3, 5), (1,), (0, 1, 7)),
    ((6,), (2, 4), (0, 6, 7)),
    ((5,), (1, 4), (0, 5, 7)),
    ((3,), (1, 2), (0, 3, 7)),
    ((6,), (4,), (0, 4, 6, 7)),
    ((6,), (2,), (0, 2, 6, 7)),
    ((3,), (2,), (0, 2, 3, 7)),
    ((3,), (1,), (0, 1, 3, 7)),
    ((5,), (1,), (0, 1, 5, 7)),
    ((5,), (4,), (0, 4, 5, 7)),
    # upper end: central reflection of the lower end with copies 1,2 swapped
    ((3, 5, 6, 7), (7,), (7,)),
    ((3,), (1, 2, 4, 7), (7,)),
    ((3, 5), (1, 4, 7), (7,)),
    ((3, 6), (2, 4, 7), (7,)),
    ((3, 5, 6), (4, 7), (7,)),
    ((3,), (1, 2, 3, 7), (7,)),
    ((3,), (1, 2, 3), (3, 7)),
    ((5,), (1, 4, 5, 7), (7,)),
    ((5,), (1, 4, 5), (5, 7)),
    ((6,), (2, 4, 6, 7), (7,)),
    ((6,), (2, 4, 6), (6, 7)),
)

# name -> (summands, cells, cell census, weighted size); the census counts
# cells by their summand dimensions in decreasing order.
_SEEDS = {
    "i3d1": (2, _I3D1_CELLS, {(3, 0): 10, (2, 1): 6}, Fraction(14, 3)),
    "i3d2": (
        3,
        _I3D2_CELLS,
        {(2, 1, 0): 20, (3, 0, 0): 16, (1, 1, 1): 2},
        Fraction(44, 3),
    ),
}


def _census(sub: MixedSubdivision) -> dict[tuple[int, ...], int]:
    out: dict[tuple[int, ...], int] = {}
    for cell in sub.cells:
        key = tuple(sorted(cell.dims(), reverse=True))
        out[key] = out.get(key, 0) + 1
    return out


@functools.cache
def _seed(name: str) -> tuple[MixedSubdivision, Triangulation]:
    """The named seed and its Cayley triangulation, built once and
    certified by :func:`cayley.validate_mixed`. Only a certified seed is
    cached, so a failed verification raises again on every call."""
    m, cells, census, weighted = _SEEDS[name]
    sub = MixedSubdivision(cube_config(3), m, tuple(MixedCell(c) for c in cells))
    got = _census(sub)
    if got != census:
        raise AssertionError(f"{name}: cell census {got}, expected {census}")
    ws = mixed_weighted_size(sub)
    if ws != weighted:
        raise AssertionError(f"{name}: weighted size {ws}, expected {weighted}")
    report = validate_mixed(sub)
    if not report.is_dissection:
        raise AssertionError(f"{name}: invalid subdivision: {report.violations[:5]}")
    return sub, mixed_to_triangulation(sub)


def seed_i3d1() -> MixedSubdivision:
    """Fine mixed subdivision of [0,2]^3: 10 tetrahedra + 6 prisms,
    weighted size 14/3; its Cayley triangulation has 16 cells."""
    return _seed("i3d1")[0]


def seed_i3d2() -> MixedSubdivision:
    """Fine mixed subdivision of [0,3]^3: 20 prisms + 16 tetrahedra + 2
    parallelepipeds, weighted size 44/3."""
    return _seed("i3d2")[0]


def cayley_seed(name: str) -> Triangulation:
    """The certified Cayley triangulation of a named seed (i3d1 | i3d2),
    cached with its read-only rows."""
    if name not in _SEEDS:
        raise ValueError(f"unknown seed {name!r}")
    return _seed(name)[1]


@dataclass(frozen=True)
class KnownConstants:
    d: int
    phi: int
    rho: float
    hadamard_lower: float
    smith_lower: float
    phi_is_upper_bound: bool = False


# smallest sizes and efficiencies of cube triangulations (d = 8 entries are
# upper bounds); the hyperbolic-volume lower bounds are stored constants.
_PHI = {1: 1, 2: 2, 3: 5, 4: 16, 5: 67, 6: 308, 7: 1493, 8: 11944}
_RHO = {1: 1.0, 2: 1.0, 3: 0.941, 4: 0.904, 5: 0.890, 6: 0.868, 7: 0.840, 8: 0.859}
_SMITH = {1: 1.0, 2: 1.0, 3: 0.941, 4: 0.889, 5: 0.833, 6: 0.789, 7: 0.751, 8: 0.718}

ASYMPTOTIC_TARGET_2 = 0.8355  # limit efficiency reachable from the 2-summand seed
ASYMPTOTIC_TARGET_3 = 0.8159  # limit efficiency reachable from the 3-summand seed


def hadamard_lower(d: int) -> float:
    """Volume lower bound on cube-triangulation efficiency:
    2 / (d+1)^((d+1)/(2d))."""
    return 2.0 / (d + 1) ** ((d + 1) / (2 * d))


def known_constants(d: int) -> KnownConstants:
    if not 1 <= d <= 8:
        raise ValueError("constants tabulated for 1 <= d <= 8")
    return KnownConstants(
        d,
        _PHI[d],
        _RHO[d],
        hadamard_lower(d),
        _SMITH[d],
        phi_is_upper_bound=(d == 8),
    )
