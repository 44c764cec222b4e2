"""Agreement of the ridge certificate with the pairwise face-to-face oracle,
and the pipeline's use of it.

``ridge_report`` is the pipeline's only face-to-face tier, and the
validators try it first; the pairwise reference
``reference_validate_face_to_face`` (the census and the pair scan, no
certificate) tests every pair of simplices. Their verdicts must agree on
valid and tampered triangulations: the pipeline's outputs, the block
seeds, a product whose coloring leaves colors absent from some cells, a
dissection that is not face to face, every triangulation of five small
configurations with each one-vertex change of a simplex, and drawn
tamperings of a pipeline output. On a kept step the pipeline runs the
ridge part on the step's own rows and census, so a corrupted row must
fail the run even when the volume census cannot see it.
"""

import argparse
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (
    memo_face_to_face,
    reference_validate_dissection,
    reference_validate_face_to_face,
    small_default_builds,
    small_default_references,
)
from test_ridges import tampered

from cubetri import cli, complexes, linalg, pipeline
from cubetri.cli import main
from cubetri.coloring import Coloring, ProductCells, triangulate_product
from cubetri.complexes import (
    Triangulation,
    Violation,
    _census,
    ridge_report,
    triangulation_to_json,
    validate_dissection,
    validate_face_to_face,
)
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


def same_verdict(tri, oracle=None):
    """The common verdict of the ridge check and the pairwise oracle (its
    report on ``tri``, when given)."""
    ridges = ridge_report(tri)
    if oracle is None:
        oracle = reference_validate_face_to_face(tri)
    assert ridges.is_face_to_face == ridges.is_dissection == oracle.is_face_to_face
    assert ridges.volume_total == oracle.volume_total
    return ridges.is_face_to_face


@pytest.fixture(scope="module")
def pipeline_outputs():
    return {d: tri for d, (tri, _) in small_default_builds().items()}


@pytest.fixture
def memo_pair_verdicts(monkeypatch):
    """The pair predicate memoized across tests (``memo_face_to_face``): a
    tampered output keeps most of its pairs."""
    monkeypatch.setattr(linalg, "simplices_face_to_face", memo_face_to_face)


@pytest.mark.usefixtures("memo_pair_verdicts")
@pytest.mark.parametrize("kind", (None,) + KINDS)
def test_agrees_on_pipeline_outputs(pipeline_outputs, kind):
    references = small_default_references()
    for d, tri in pipeline_outputs.items():
        if kind is None:
            assert same_verdict(tri, references[d])
        else:
            assert not same_verdict(tampered(tri, kind))


def _restricted_product():
    # color 1 never appears in the first triangle of T_Q
    coloring = Coloring((0, 0, 2, 1), 3)
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


# -- the validators: the certificate first, the pair scan after a refusal ------

VALIDATORS = (
    (validate_dissection, reference_validate_dissection),
    (validate_face_to_face, reference_validate_face_to_face),
)


@pytest.mark.parametrize(
    "config", (simplex_config(0), cube_config(0)), ids=("simplex(0)", "cube(0)")
)
def test_the_point_has_one_triangulation(tmp_path, capsys, config):
    """A point has no facet; its one ridge, the empty one, is its boundary."""
    point = Triangulation(config, ((0,),))
    assert ridge_report(point).is_face_to_face
    path = tmp_path / "point.json"
    path.write_text(triangulation_to_json(point))
    assert main(["verify", str(path)]) == 0
    assert "ridges: True (0 violations)" in capsys.readouterr().out
    twice = Triangulation(config, ((0,), (0,)))
    kinds = [v.kind for v in ridge_report(twice).violations]
    assert kinds == ["volume-mismatch", "ridge-same-side"]
    for tri in (point, twice):
        for validate, reference in VALIDATORS:
            assert validate(tri) == reference(tri)


@pytest.mark.usefixtures("memo_pair_verdicts")
@pytest.mark.parametrize("name", ("d4", "d5", "d6", "i3d1", "i3d2"))
def test_validators_certify_valid_inputs_with_no_pair_scan(
    monkeypatch, pipeline_outputs, name
):
    if name.startswith("d"):
        tri = pipeline_outputs[int(name[1:])]
    else:
        tri = cayley_seed(name)
    want = [reference(tri) for _, reference in VALIDATORS]
    assert want[1].is_face_to_face and not want[1].violations

    def refuse(*args):
        raise AssertionError("the pair scan was run")

    monkeypatch.setattr(linalg, "feasible", refuse)
    monkeypatch.setattr(linalg, "barycentric_rows", refuse)
    assert [validate(tri) for validate, _ in VALIDATORS] == want


@pytest.mark.parametrize("kind", KINDS)
def test_validators_report_the_pair_scan_on_tampered_d4(kind):
    tri = tampered(_d4_output(), kind)
    for validate, reference in VALIDATORS:
        report = validate(tri)
        assert report == reference(tri) and report.violations


@pytest.mark.parametrize("simplices", (T_VERTEX, FAN), ids=("t-vertex", "fan"))
def test_validators_report_the_pair_scan_on_the_big_square(simplices):
    tri = _big_square(simplices)
    for validate, reference in VALIDATORS:
        assert validate(tri) == reference(tri)


def test_the_t_vertex_is_a_dissection_and_not_face_to_face():
    tri = _big_square(T_VERTEX)
    assert validate_dissection(tri).is_dissection
    report = validate_face_to_face(tri)
    assert not report.is_face_to_face
    assert {v.kind for v in report.violations} == {"not-face-to-face"}


def test_inputs_outside_the_certificate_reach_the_pair_scan(monkeypatch):
    scanned = []
    scan = complexes._pair_scan

    def spy(tri, census, face_to_face):
        scanned.append(face_to_face)
        return scan(tri, census, face_to_face)

    monkeypatch.setattr(complexes, "_pair_scan", spy)
    # [0,2]^2 covered twice, by its two halves and by its eight unit
    # triangles: only the census against the label's volume tells it
    # apart, so the validators must refuse it by the pair scan
    twice = _big_square(((0, 6, 8), (0, 2, 8)) + _grid_triangles())
    assert [v.kind for v in ridge_report(twice).violations] == ["volume-mismatch"]
    for validate, reference in VALIDATORS:
        report = validate(twice)
        assert report == reference(twice) and not report
    assert scanned == [False, True]


def _grid_triangles():
    """The eight unit triangles of [0,2]^2: each unit square cut along its
    diagonal through (a, b) and (a+1, b+1)."""
    out = ()
    for a in (0, 1):
        for b in (0, 1):
            corner = 3 * a + b
            out += ((corner, corner + 3, corner + 4), (corner, corner + 1, corner + 4))
    return out


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


def _swap_vertex(points, s, vol=None):
    """Another sorted simplex of volume ``vol`` (by default, of s's own
    volume): one vertex of s replaced."""
    if vol is None:
        vol = normalized_volume([points[i] for i in s])
    for out in s:
        for new in range(len(points)):
            t = sorted(set(s) - {out} | {new})
            if new not in s and normalized_volume([points[i] for i in t]) == vol:
                return t
    raise AssertionError(f"no replacement of volume {vol}")


def test_corrupted_kept_row_fails_the_run(monkeypatch):
    real = ProductCells.simplex_rows

    def corrupted(self, lo, hi):
        rows = real(self, lo, hi)
        if lo == 0:
            rows[0] = _swap_vertex(self.config.points, rows[0].tolist())
        return rows

    monkeypatch.setattr(ProductCells, "simplex_rows", corrupted)
    tri, report = build_cube_recursive(PipelineSpec(dim=4))
    (step,) = report.steps
    # the census cannot see the swap; the ridge check must
    assert step.volume_ok
    assert step.face_to_face is False and step.dissection_certified is False
    assert report.ok is False
    assert not same_verdict(tri)

    # A certified d=7 build whose last step comes in several chunks, with
    # the swap in the last chunk of that step.
    chunks = []

    def corrupted_last(self, lo, hi):
        rows = real(self, lo, hi)
        if self.config.dim == 7:
            chunks.append(len(rows))
            if hi == len(self.starts) - 1:
                rows[-1] = _swap_vertex(self.config.points, rows[-1].tolist())
        return rows

    monkeypatch.setattr(pipeline, "census_batch", lambda d: 256)
    monkeypatch.setattr(ProductCells, "simplex_rows", corrupted_last)
    tri, report = build_cube_recursive(PipelineSpec(dim=7))
    assert len(chunks) > 2 and sum(chunks) == tri.size
    first, last = report.steps
    assert first.face_to_face is True and last.volume_ok
    assert last.face_to_face is False and last.dissection_certified is False
    assert report.ok is False


def _d7_run(monkeypatch, edit, materialize_max_dim):
    """(report, build's exit code) of a d=7 build with ``edit(points, rows)``
    in place of the first chunk's rows of its last step, which
    ``materialize_max_dim`` keeps (7) or streams (4)."""
    real = ProductCells.simplex_rows

    def edited(self, lo, hi):
        rows = real(self, lo, hi)
        if self.config.dim == 7 and lo == 0:
            return edit(self.config.points, rows)
        return rows

    monkeypatch.setattr(ProductCells, "simplex_rows", edited)
    spec = PipelineSpec(dim=7, materialize_max_dim=materialize_max_dim)
    tri, report = build_cube_recursive(spec)
    assert (tri is None) == (materialize_max_dim < 7)
    return report, cli._cmd_build(argparse.Namespace(out=None), spec)


def _degenerate_first(points, rows):
    rows[0] = _swap_vertex(points, rows[0].tolist(), 0)
    return rows


@pytest.mark.parametrize("materialize_max_dim", [4, 7], ids=["streamed", "kept"])
@pytest.mark.parametrize(
    "edit",
    [_degenerate_first, lambda points, rows: rows[1:]],
    ids=["degenerate", "dropped"],
)
def test_a_step_fails_the_run_on_its_census(
    monkeypatch, capsys, edit, materialize_max_dim
):
    # A streamed step has no ridge check: its census alone must see a row
    # replaced by a degenerate one, or a row dropped. A kept step fails the
    # same way, with a dropped row left as a failed census, not an error.
    report, code = _d7_run(monkeypatch, edit, materialize_max_dim)
    first, last = report.steps
    assert first.ok and last.bound_ok
    assert last.face_to_face is (None if materialize_max_dim < 7 else False)
    assert last.volume_ok is False and last.dissection_certified is False
    assert report.ok is False and code == 1
    with pytest.raises(pipeline.VerificationFailed, match="failed at d=7$"):
        report.check()


@pytest.mark.parametrize("chunk", [8192, 256])
@pytest.mark.parametrize("materialize_max_dim", [4, 7], ids=["streamed", "kept"])
def test_an_over_long_step_fails_the_run_on_its_census(
    monkeypatch, capsys, materialize_max_dim, chunk
):
    # One row more than the step announces, in its first chunk of rows (of
    # several with 256-row chunks): the census counts it, names both
    # counts, and fails the step as it fails a short one. No store of the
    # step's volumes or kept rows overflows on the way.
    real = pipeline.volume_census
    censuses = []

    def recorded(config, chunks, n_rows):
        censuses.append(real(config, chunks, n_rows))
        return censuses[-1]

    monkeypatch.setattr(pipeline, "volume_census", recorded)
    monkeypatch.setattr(pipeline, "census_batch", lambda d: chunk)
    def one_more(points, rows):
        return np.concatenate((rows, rows[:1]))

    report, code = _d7_run(monkeypatch, one_more, materialize_max_dim)
    first, last = report.steps
    assert first.ok and last.bound_ok
    assert last.volume_ok is False and last.dissection_certified is False
    assert report.ok is False and code == 1
    vols, _, violations = censuses[1]
    assert len(vols) == last.size
    counts = f"got {last.size + 1} rows, expected {last.size}"
    assert Violation("row-count", (), counts) in violations
    assert "volume_ok=False" in capsys.readouterr().out


def test_a_kept_step_takes_the_census_of_its_rows(monkeypatch):
    # Over the pipeline's chunks of 256 rows, the step's census gives the
    # volumes (int8) and total that _census gives on the kept rows in
    # batches of census_batch (2,048 rows: two at d=7).
    real = complexes.volume_census
    seen = []

    def recorded(config, chunks, n_rows):
        sizes = []
        got = real(config, (sizes.append(len(c)) or c for c in chunks), n_rows)
        seen.append((config, sizes, got))
        return got

    monkeypatch.setattr(pipeline, "census_batch", lambda d: 256)
    monkeypatch.setattr(pipeline, "volume_census", recorded)
    for dim in range(4, 8):
        tri, report = build_cube_recursive(PipelineSpec(dim=dim))
        config, sizes, (vols, total, violations) = seen[-1]
        assert config == tri.config and sum(sizes) == tri.size and report.ok
        assert len(sizes) > 2 or dim < 7
        _, want, want_total, want_violations = _census(tri)
        assert vols.dtype == want.dtype == np.int8 and np.array_equal(vols, want)
        assert total == want_total and violations == want_violations == []


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
