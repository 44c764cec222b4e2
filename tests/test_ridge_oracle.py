"""Agreement of the ridge certificate with the pairwise face-to-face oracle,
and the pipeline's use of it.

``ridge_report`` is the pipeline's only face-to-face tier; the pairwise
``validate_face_to_face`` tests every pair of simplices and stays the
authoritative reference. Their verdicts must agree on valid and tampered
triangulations: the pipeline's outputs, the block seeds, a product whose
coloring leaves colors absent from some cells, a dissection that is not
face to face, every triangulation of five small configurations with each
one-vertex change of a simplex, and drawn tamperings of a pipeline output. On a kept step the pipeline runs the ridge part on the
step's own rows and census, so a corrupted row must fail the run even
when the volume census cannot see it.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_ridges import tampered

from cubetri import linalg, pipeline
from cubetri.coloring import Coloring, ProductCells, triangulate_product
from cubetri.complexes import Triangulation, ridge_report, validate_face_to_face
from cubetri.geometry import (
    cube_config,
    minkowski_config,
    normalized_volume,
    product_config,
    simplex_config,
)
from cubetri.oracle import SearchProblem, enumerate_triangulations
from cubetri.pipeline import PipelineSpec, build_cube_recursive
from cubetri.seeds import cayley_seed, minimal_cube

KINDS = ("drop", "duplicate", "overlap")


def same_verdict(tri):
    """The common verdict of the ridge check and the pairwise oracle."""
    ridges = ridge_report(tri)
    oracle = validate_face_to_face(tri)
    assert ridges.is_face_to_face == ridges.is_dissection == oracle.is_face_to_face
    assert ridges.volume_total == oracle.volume_total
    return ridges.is_face_to_face


@pytest.fixture(scope="module")
def pipeline_outputs():
    return {
        d: build_cube_recursive(PipelineSpec(dim=d, samples=3, rng_seed=1))[0]
        for d in (4, 5, 6)
    }


@pytest.fixture(scope="module")
def face_to_face_verdicts():
    """Pair verdicts shared by the parameters below, keyed on the two
    vertex-coordinate tuples: a tampered output keeps most of its pairs."""
    return {}


@pytest.fixture
def memo_face_to_face(monkeypatch, face_to_face_verdicts):
    """``linalg.simplices_face_to_face`` memoized in ``face_to_face_verdicts``.
    The predicate is a function of the coordinates alone, so no verdict
    changes."""
    exact = linalg.simplices_face_to_face

    def memo(pts_a, pts_b, bary_a=None, bary_b=None):
        key = (tuple(pts_a), tuple(pts_b))
        hit = face_to_face_verdicts.get(key)
        if hit is None:
            hit = face_to_face_verdicts[key] = exact(pts_a, pts_b, bary_a, bary_b)
        return hit

    monkeypatch.setattr(linalg, "simplices_face_to_face", memo)


@pytest.mark.usefixtures("memo_face_to_face")
@pytest.mark.parametrize("kind", (None,) + KINDS)
def test_agrees_on_pipeline_outputs(pipeline_outputs, kind):
    for tri in pipeline_outputs.values():
        if kind is None:
            assert same_verdict(tri)
        else:
            assert not same_verdict(tampered(tri, kind))


def _restricted_product():
    # color 1 never appears in the first triangle of T_Q
    coloring = Coloring((0, 0, 2, 1), 3, "explicit")
    return triangulate_product(minimal_cube(2), cayley_seed("i3d2"), coloring)


def _big_square(simplices):
    # [0,2]^2 on its nine lattice points; (a, b) has index 3a + b
    return Triangulation(minkowski_config(2, 2), simplices)


# Three triangles with a hanging vertex (1, 1) on the interior of the
# first one's edge: a dissection, not a complex.
T_VERTEX = ((0, 6, 8), (0, 4, 2), (2, 4, 8))
# The four triangles through the center point: a genuine complex.
FAN = ((0, 6, 4), (6, 8, 4), (8, 2, 4), (0, 2, 4))


@pytest.mark.parametrize(
    "make",
    (
        lambda: cayley_seed("i3d1"),
        lambda: cayley_seed("i3d2"),
        _restricted_product,
        lambda: _big_square(FAN),
    ),
    ids=("i3d1", "i3d2", "restricted-coloring", "fan"),
)
def test_agrees_on_valid_and_tampered_fixtures(make):
    tri = make()
    assert same_verdict(tri)
    for kind in KINDS:
        assert not same_verdict(tampered(tri, kind))


def test_agrees_on_the_t_vertex():
    tri = _big_square(T_VERTEX)
    assert ridge_report(tri).volume_total == 8
    assert not same_verdict(tri)
    kinds = {v.kind for v in ridge_report(tri).violations}
    assert kinds == {"open-interior-ridge"}


SMALL_CONFIGS = {
    "cube(3)": lambda: cube_config(3),
    "cube(2)xsimplex(1)": lambda: product_config(cube_config(2), simplex_config(1)),
    "cube(1)xsimplex(2)": lambda: product_config(cube_config(1), simplex_config(2)),
    "cube(1)xsimplex(3)": lambda: product_config(cube_config(1), simplex_config(3)),
    "simplex(2)xsimplex(2)": lambda: product_config(
        simplex_config(2), simplex_config(2)
    ),
}


def _replace_vertex(tri, i, out, new):
    """``tri`` with vertex ``out`` of simplex i replaced by point ``new``."""
    simplices = list(tri.simplices)
    simplices[i] = tuple(sorted(set(simplices[i]) - {out} | {new}))
    return Triangulation(tri.config, tuple(simplices))


@pytest.mark.parametrize("name", SMALL_CONFIGS)
def test_agrees_on_every_small_triangulation_and_its_one_vertex_changes(name):
    """Every triangulation the oracle enumerates is accepted by both checks,
    and both give one verdict and volume on each change of one vertex of
    its last simplex to another point of the configuration."""
    config = SMALL_CONFIGS[name]()
    n = len(config.points)
    count = 0
    for tri in enumerate_triangulations(SearchProblem(config)):
        assert same_verdict(tri)
        last = tri.simplices[-1]
        for out in last:
            for new in range(n):
                if new not in last:
                    same_verdict(_replace_vertex(tri, len(tri.simplices) - 1, out, new))
        count += 1
    assert count > 0


@functools.cache
def _d4_output():
    return build_cube_recursive(PipelineSpec(dim=4, samples=3, rng_seed=1))[0]


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(("drop", "duplicate", "replace")), data=st.data())
def test_agrees_on_drawn_tamperings_of_the_d4_output(kind, data):
    tri = _d4_output()
    i = data.draw(st.integers(0, tri.size - 1), label="simplex")
    simplices = list(tri.simplices)
    if kind == "drop":
        del simplices[i]
        bad = Triangulation(tri.config, tuple(simplices))
    elif kind == "duplicate":
        at = data.draw(st.integers(0, tri.size), label="position")
        simplices.insert(at, simplices[i])
        bad = Triangulation(tri.config, tuple(simplices))
    else:
        out = data.draw(st.sampled_from(simplices[i]), label="out")
        new = data.draw(
            st.sampled_from(
                [p for p in range(len(tri.config.points)) if p not in simplices[i]]
            ),
            label="new",
        )
        bad = _replace_vertex(tri, i, out, new)
    # a simplex is the hull of its vertices, so no change tiles the cube
    assert not same_verdict(bad)


# -- the pipeline's ridge tier ---------------------------------------------------


def _equal_volume_swap(points, s):
    """Another sorted simplex of the same volume: one vertex of s replaced."""
    vol = normalized_volume([points[i] for i in s])
    for out in s:
        for new in range(len(points)):
            t = sorted(set(s) - {out} | {new})
            if new not in s and normalized_volume([points[i] for i in t]) == vol:
                return t
    raise AssertionError("no equal-volume replacement")


def test_corrupted_kept_row_fails_the_run(monkeypatch):
    real = ProductCells.simplex_rows

    def corrupted(self, lo, hi):
        rows = real(self, lo, hi)
        if lo == 0:
            rows[0] = _equal_volume_swap(self.config.points, rows[0].tolist())
        return rows

    monkeypatch.setattr(ProductCells, "simplex_rows", corrupted)
    tri, report = build_cube_recursive(PipelineSpec(dim=4))
    (step,) = report.steps
    # the census cannot see the swap; the ridge check must
    assert step.volume_ok
    assert step.face_to_face is False and step.dissection_certified is False
    assert report.ok is False
    assert not same_verdict(tri)


def test_ridge_tier_runs_on_certified_kept_steps_only(monkeypatch):
    calls = []
    real = pipeline.ridge_violations

    def counted(config, simplices, signed_vols):
        calls.append(config.dim)
        return real(config, simplices, signed_vols)

    monkeypatch.setattr(pipeline, "ridge_violations", counted)
    _, rep = build_cube_recursive(PipelineSpec(dim=7, materialize_max_dim=6))
    assert calls == [4] and rep.ok
    calls.clear()
    _, rep = build_cube_recursive(
        PipelineSpec(dim=8, materialize_max_dim=7, face_check_max_dim=4)
    )
    assert calls == [] and rep.ok
    assert [st.face_to_face for st in rep.steps] == [None, None]
