"""Shared helpers for the test suite."""

import itertools
from fractions import Fraction

from cubetri.cayley import MixedCell, MixedSubdivision, mixed_to_triangulation
from cubetri.coloring import Coloring, product_size
from cubetri.complexes import Triangulation
from cubetri.geometry import cube_config, product_config, simplex_config


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
