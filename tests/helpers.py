"""Shared helpers for the test suite."""

import itertools
import json
from fractions import Fraction

import numpy as np

from cubetri.cayley import MixedCell, MixedSubdivision, mixed_to_triangulation
from cubetri.coloring import Coloring, product_size
from cubetri.complexes import Triangulation
from cubetri.geometry import (
    config_from_label,
    cube_config,
    parse_label,
    product_config,
    simplex_config,
)
from cubetri.linalg import exact_dtype


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
