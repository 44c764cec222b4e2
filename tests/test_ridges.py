"""Agreement of the array-native ridge check with the scalar one it replaced.

The reference below is that earlier ``ridge_report``: a dict from each
ridge to its owners in first-occurrence order, a facet scan per boundary
ridge and two orientation determinants per shared ridge. The array code
takes one signed determinant per simplex instead and derives every side
from it by parity, so the tests pin that identity, the sign of
``linalg.batch_det``, and the violation list, order included, on valid
and tampered triangulations.
"""

import itertools
import os
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from helpers import cell_points, level_dtype, path_edges, reference_to_json
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cubetri import complexes
from cubetri.cli import main
from cubetri.complexes import (
    Triangulation,
    Violation,
    _apex_sides,
    batch_volumes_of,
    ridge_report,
    ridge_violations,
    signed_volumes,
    triangulation_from_json,
    triangulation_to_json,
    validate_dissection,
)
from cubetri.geometry import (
    cube_config,
    facet_inequalities,
    minkowski_config,
    simplex_config,
)
from cubetri.linalg import batch_abs_det, batch_det, det_bareiss
from cubetri.pipeline import PipelineSpec, build_cube_recursive
from cubetri.seeds import (
    cayley_seed,
    minimal_cube,
    seed_i3d1,
    seed_i3d2,
    unimodular_cube,
)

RIDGE_KINDS = ("ridge-overused", "open-interior-ridge", "ridge-same-side")


# -- reference: the scalar ridge check -----------------------------------------


def scalar_ridge_report(tri):
    """(verdict, volume total, violations) of the scalar ridge check."""
    facets = facet_inequalities(tri.config.label)
    pts = tri.config.points
    violations = []
    ridges = {}
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
            p0 = rpts[0]
            rows = [[p[j] - p0[j] for j in range(tri.config.dim)] for p in rpts[1:]]
            r1 = rows + [[pts[d1][j] - p0[j] for j in range(tri.config.dim)]]
            r2 = rows + [[pts[d2][j] - p0[j] for j in range(tri.config.dim)]]
            s1sign = det_bareiss(r1)
            s2sign = det_bareiss(r2)
            if s1sign == 0 or s2sign == 0 or (s1sign > 0) == (s2sign > 0):
                violations.append(Violation("ridge-same-side", (s1, s2), str(ridge)))
    d = tri.config.dim
    total = sum(tri.volume_of(s) for s in tri.simplices if len(s) == d + 1)
    return not violations, total, violations


def tampered(tri, kind):
    """One simplex dropped, one duplicated, or one replaced by a different
    simplex of equal volume (the census stays exact, a ridge breaks)."""
    simplices = list(tri.simplices)
    mid = len(simplices) // 2
    if kind == "drop":
        del simplices[mid]
    elif kind == "duplicate":
        simplices.append(simplices[mid])
    else:
        present = set(simplices)
        n = len(tri.config.points)
        for i, s in enumerate(simplices):
            vol = tri.volume_of(s)
            swaps = (
                tuple(sorted(set(s) - {out} | {new}))
                for out in s
                for new in range(n)
                if new not in s
            )
            s2 = next(
                (t for t in swaps if t not in present and tri.volume_of(t) == vol),
                None,
            )
            if s2 is not None:
                simplices[i] = s2
                break
    return Triangulation(tri.config, tuple(simplices))


def assert_agrees(tri):
    ok, total, ref = scalar_ridge_report(tri)
    got = ridge_report(tri)
    assert got.is_dissection == got.is_face_to_face == ok
    assert got.volume_total == total
    ridge = [v for v in got.violations if v.kind in RIDGE_KINDS]
    assert repr(ridge) == repr(ref)
    # the census part is validate_dissection's, duplicates aside
    census = validate_dissection(tri, pairwise=False).violations
    assert got.violations[: len(got.violations) - len(ridge)] == [
        v for v in census if v.kind != "duplicate"
    ]
    return got


# -- fixtures ------------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline_outputs():
    return {
        d: build_cube_recursive(
            PipelineSpec(dim=d, samples=3, rng_seed=1, face_check_max_dim=4)
        )[0]
        for d in (4, 5, 6, 7)
    }


def test_agrees_on_pipeline_outputs(pipeline_outputs):
    for d, tri in pipeline_outputs.items():
        report = assert_agrees(tri)
        assert report.is_face_to_face and report.volume_total == np.prod(
            range(1, d + 1)
        )


@pytest.mark.parametrize("kind", ["drop", "duplicate", "overlap"])
def test_agrees_on_tampered_outputs(pipeline_outputs, kind):
    for d in (4, 5, 6):
        bad = tampered(pipeline_outputs[d], kind)
        assert bad.simplices != pipeline_outputs[d].simplices
        assert not assert_agrees(bad).is_dissection


def test_agrees_on_seeds_and_small_cubes():
    for tri in (
        cayley_seed("i3d1"),
        cayley_seed("i3d2"),
        minimal_cube(3),
        unimodular_cube(3),
    ):
        assert assert_agrees(tri).is_face_to_face
        for kind in ("drop", "duplicate", "overlap"):
            assert not assert_agrees(tampered(tri, kind)).is_face_to_face


def _grid_triangles(m):
    """[0,m]^2 cut into unit squares, each split along its diagonal."""
    v = lambda a, b: (m + 1) * a + b  # noqa: E731 (minkowski_config order)
    return tuple(
        t
        for a, b in itertools.product(range(m), repeat=2)
        for t in ((v(a, b), v(a + 1, b), v(a + 1, b + 1)),
                  (v(a, b), v(a, b + 1), v(a + 1, b + 1)))
    )


def test_agrees_on_wide_point_indices():
    # past 256 points, and past 65,536 (the uint16 ridge rows end there)
    fine = Triangulation(minkowski_config(2, 16), _grid_triangles(16))
    m = 256
    corners = (0, m, (m + 1) * m, (m + 1) ** 2 - 1)
    big = Triangulation(
        minkowski_config(2, m),
        ((corners[0], corners[1], corners[3]), (corners[0], corners[2], corners[3])),
    )
    for tri in (fine, big):
        assert assert_agrees(tri).is_face_to_face
        for kind in ("drop", "duplicate"):
            assert not assert_agrees(tampered(tri, kind)).is_face_to_face


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_agrees_under_shuffles(pipeline_outputs, data):
    d = data.draw(st.sampled_from((4, 5)))
    kind = data.draw(st.sampled_from((None, "drop", "duplicate", "overlap")))
    tri = pipeline_outputs[d] if kind is None else tampered(pipeline_outputs[d], kind)
    order = data.draw(st.permutations(tri.simplices))
    assert_agrees(Triangulation(tri.config, tuple(order)))


# -- the bucketed matcher at its edges -----------------------------------------


@pytest.fixture
def small_chunks(monkeypatch):
    """Buckets of about 50 ridges, which split every output above d=3 into
    many, and census chunks of 3 rows."""
    monkeypatch.setattr(complexes, "RIDGE_BUCKET", 50)
    monkeypatch.setattr(complexes, "CENSUS_CHUNK", 3)


def _ridge_cuts(rows, n_points):
    groups = complexes._ridge_groups(rows.shape[1])
    return complexes._bucket_cuts(rows, n_points, groups)


@pytest.mark.parametrize("kind", [None, "drop", "duplicate", "overlap"])
def test_small_buckets_agree_on_pipeline_outputs(pipeline_outputs, small_chunks, kind):
    for d, tri in pipeline_outputs.items():
        cuts = _ridge_cuts(tri.rows, len(tri.config.points))
        assert len(cuts) > 2  # 2 buckets at d=4, 37 at d=7
        if kind is None:
            assert assert_agrees(tri).is_face_to_face
        else:
            assert not assert_agrees(tampered(tri, kind)).is_dissection


def test_small_buckets_agree_on_a_duplicate_at_a_bucket_cut(
    pipeline_outputs, small_chunks
):
    for d, tri in pipeline_outputs.items():
        rows, n = tri.rows, len(tri.config.points)
        cuts = _ridge_cuts(rows, n)[1:-1]  # first * n + second
        at_cut = np.flatnonzero(np.isin(rows[:, 0], cuts // n))
        assert len(at_cut)
        for i in (at_cut[0], at_cut[-1]):
            doubled = Triangulation(tri.config, np.concatenate([rows, rows[i : i + 1]]))
            assert not assert_agrees(doubled).is_dissection


def _bucket_sizes(rows, n_points):
    """(ridges, distinct (first, second) vertex pairs) of each bucket."""
    d1 = rows.shape[1]
    out = []
    for owners, valid in complexes._ridge_buckets(rows, n_points):
        r, j = np.nonzero(valid)
        ridges = complexes._ridge_rows(rows, owners[r] * d1 + j)
        out.append((len(ridges), len({tuple(x) for x in ridges[:, :2].tolist()})))
    return out


def _pair_counts(rows):
    """Ridges per first vertex and per (first, second) vertex pair."""
    d1 = rows.shape[1]
    ridges = complexes._ridge_rows(rows, np.arange(len(rows) * d1))
    _, per_vertex = np.unique(ridges[:, 0], return_counts=True)
    _, per_pair = np.unique(ridges[:, :2], axis=0, return_counts=True)
    return per_vertex.max(), per_pair.max()


def test_buckets_hold_at_most_the_bucket_size(pipeline_outputs, d8_output, monkeypatch):
    outputs = {**pipeline_outputs, 8: d8_output}
    # Buckets of 50 ridges: only the ridges of one (first, second) pair,
    # which no bucket splits, may be more.
    monkeypatch.setattr(complexes, "RIDGE_BUCKET", 50)
    for d, tri in outputs.items():
        n = len(tri.config.points)
        vertex_max, pair_max = _pair_counts(tri.rows)
        assert vertex_max > 50 or d == 4
        for ridges, pairs in _bucket_sizes(tri.rows, n):
            assert ridges <= 50 or pairs == 1, d
    # Buckets of the largest pair's ridges, below the largest vertex's:
    # every bucket holds at most that many.
    for d, tri in outputs.items():
        vertex_max, pair_max = _pair_counts(tri.rows)
        if pair_max < vertex_max:
            monkeypatch.setattr(complexes, "RIDGE_BUCKET", int(pair_max))
            sizes = _bucket_sizes(tri.rows, len(tri.config.points))
            assert max(r for r, _ in sizes) <= pair_max and len(sizes) > 1, d


def _equal_volume_swap(tri, i):
    """The rows of ``tri`` with simplex i replaced by another simplex of
    the same volume that is not one of them."""
    rows, pts = tri.rows.tolist(), tri.config.points
    present = set(map(tuple, rows))
    vol = tri.volume_of(rows[i])
    for out in rows[i]:
        for new in range(len(pts)):
            t = tuple(sorted(set(rows[i]) - {out} | {new}))
            if new not in rows[i] and t not in present and tri.volume_of(t) == vol:
                rows[i] = list(t)
                return Triangulation(tri.config, rows)
    raise AssertionError("no equal-volume replacement")


def test_tampering_at_a_second_vertex_cut_agrees(pipeline_outputs, monkeypatch):
    """Drop, duplicate or replace by an equal-volume simplex the simplex
    owning the last ridge before a cut inside one first vertex, and the
    one owning the first ridge from it: the violation lists, order
    included, equal the one-bucket run's and the scalar check's."""
    seen = 0
    for d in (5, 6):
        tri = pipeline_outputs[d]
        rows, n = tri.rows, len(tri.config.points)
        monkeypatch.setattr(complexes, "RIDGE_BUCKET", 50)
        cuts = _ridge_cuts(rows, n)
        inner = [int(c) for c in cuts[1:-1] if c % n]
        assert inner, d
        ridges = complexes._ridge_rows(rows, np.arange(len(rows) * (d + 1)))
        keys = ridges[:, 0].astype(np.int64) * n + ridges[:, 1]
        for cut in inner[:2]:
            below = keys[keys < cut].max()
            at = keys[keys >= cut].min()
            edges = [int(np.flatnonzero(keys == k)[0]) // (d + 1) for k in (below, at)]
            for i in edges:
                kept = np.delete(rows, i, axis=0)
                doubled = np.concatenate([rows, rows[i : i + 1]])
                for bad in (
                    Triangulation(tri.config, kept),
                    Triangulation(tri.config, doubled),
                    _equal_volume_swap(tri, i),
                ):
                    monkeypatch.setattr(complexes, "RIDGE_BUCKET", 50)
                    small = assert_agrees(bad)
                    assert not small.is_face_to_face
                    monkeypatch.setattr(complexes, "RIDGE_BUCKET", 1 << 40)
                    one = ridge_report(bad)
                    assert repr(small.violations) == repr(one.violations)
                    seen += 1
    assert seen == 2 * 2 * 2 * 3


def test_more_than_64_facets(tmp_path):
    """simplex(64) has 65 facets, so each point's facet mask takes two
    words; the ridge without vertex 0 lies on facet 64 alone."""
    cfg = simplex_config(64)
    assert len(facet_inequalities(cfg.label)) == 65
    tri = Triangulation(cfg, (tuple(range(65)),))
    assert ridge_report(tri).is_face_to_face
    path = os.fspath(tmp_path / "simplex64.json")
    with open(path, "w") as fh:
        fh.write(triangulation_to_json(tri))
    assert main(["verify", path]) == 0
    doubled = assert_agrees(Triangulation(cfg, tri.simplices * 2))
    assert [v.kind for v in doubled.violations] == (
        ["volume-mismatch"] + ["ridge-same-side"] * 65
    )


@pytest.fixture(scope="module")
def d8_output():
    return build_cube_recursive(
        PipelineSpec(dim=8, samples=3, rng_seed=1, materialize_max_dim=8)
    )[0]


def test_buckets_bound_the_ridge_check_memory(d8_output, monkeypatch):
    tri = d8_output
    vols = signed_volumes(tri.config.points, tri.rows)

    def peak(bucket):
        monkeypatch.setattr(complexes, "RIDGE_BUCKET", bucket)
        tracemalloc.start()
        try:
            assert ridge_violations(tri.config, tri.rows, vols) == []
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    whole = peak(tri.size * 9)  # one bucket
    assert peak(1 << 12) < whole / 2


# -- soundness by itself -------------------------------------------------------


# Simplices of one size that are not full-dimensional: the two diagonals of
# the square.
DIAGONALS = Triangulation(cube_config(2), ((0, 3), (1, 2)))


def test_rejects_a_diagonal_as_a_third_simplex():
    with pytest.raises(ValueError, match="different sizes"):
        Triangulation(cube_config(2), ((0, 1, 2), (1, 2, 3), (0, 3)))
    report = ridge_report(DIAGONALS)
    assert not report.is_dissection and report.volume_total == 0
    assert [(v.kind, v.members) for v in report.violations] == [
        ("not-full-dimensional", ((0, 3),)),
        ("not-full-dimensional", ((1, 2),)),
        ("volume-mismatch", ()),
    ]


def test_rejects_a_degenerate_simplex_in_a_facet():
    # [0,3]^2 as two triangles, plus three collinear points on the facet
    # x_1 = 0: every ridge of the flat simplex lies in that facet.
    cfg = minkowski_config(2, 3)
    tri = Triangulation(cfg, ((0, 3, 15), (0, 12, 15), (1, 2, 3)))
    assert scalar_ridge_report(tri)[0]
    report = ridge_report(tri)
    assert not report.is_dissection and report.volume_total == 18
    assert [(v.kind, v.members) for v in report.violations] == [
        ("degenerate", ((1, 2, 3),))
    ]
    # a flat simplex on a ridge of a real one has side 0 there
    tri = Triangulation(cfg, ((0, 3, 15), (0, 12, 15), (0, 1, 3)))
    kinds = [v.kind for v in assert_agrees(tri).violations]
    assert kinds == ["degenerate", "ridge-same-side"]


def test_rejects_a_volume_deficit_first():
    report = ridge_report(Triangulation(cube_config(2), ((0, 1, 2),)))
    assert [v.kind for v in report.violations] == [
        "volume-mismatch",
        "open-interior-ridge",
    ]
    assert not ridge_report(Triangulation(cube_config(2), ())).is_dissection


# -- the kernels ---------------------------------------------------------------


def test_apex_side_is_orientation_times_parity():
    rng = random.Random(5)
    for d in range(2, 7):
        signs = set()
        for _ in range(40):
            while True:
                pts = [tuple(rng.randrange(-3, 4) for _ in range(d)) for _ in range(d + 1)]
                o = det_bareiss([[p[k] - pts[0][k] for k in range(d)] for p in pts[1:]])
                if o:
                    break
            signs.add(o > 0)
            sides = _apex_sides(np.array([o]), d)[0]
            for j in range(d + 1):
                ridge = pts[:j] + pts[j + 1 :]
                side = det_bareiss(
                    [[p[k] - ridge[0][k] for k in range(d)] for p in ridge[1:] + [pts[j]]]
                )
                assert sides[j] == (side > 0) - (side < 0)
        assert signs == {True, False}


def _assert_signed(mats):
    got = batch_det(mats)
    assert [int(v) for v in got] == [det_bareiss(m.tolist()) for m in mats]
    assert [int(v) for v in batch_abs_det(mats)] == [abs(int(v)) for v in got]


def test_batch_det_keeps_the_sign_on_the_overflow_fallback():
    mats = np.random.default_rng(0).integers(-200, 201, size=(2000, 6, 6))
    _assert_signed(mats)


def test_batch_det_keeps_the_sign_through_row_swaps():
    rng = np.random.default_rng(1)
    mats = rng.integers(-1, 2, size=(3000, 10, 10))
    mats[::7, :, rng.integers(0, 10)] = 0
    assert batch_det(mats).dtype == np.int64
    assert (batch_det(mats) < 0).any()
    _assert_signed(mats)


def test_batch_det_of_empty_matrices():
    assert batch_det(np.zeros((2, 0, 0), dtype=np.int64)).tolist() == [1, 1]


# -- the census ----------------------------------------------------------------


def _assert_census_exact(points, rows):
    """signed_volumes equals the scalar determinant of each simplex's vertex
    differences, in int64 and without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = signed_volumes(points, rows)
    assert got.dtype == np.int64
    want = [
        det_bareiss([[a - b for a, b in zip(points[v], points[s[0]])] for v in s[1:]])
        for s in np.asarray(rows).tolist()
    ]
    assert got.tolist() == want
    return got


def test_census_matches_scalar_on_pipeline_outputs(pipeline_outputs, d8_output):
    tris = dict(pipeline_outputs)
    tris[8] = d8_output
    # cube censuses take the expansion on an int8 block up to d = 8, with
    # levels 1..5 in int8 and levels 6..d in int16
    int8, int16 = np.int8, np.int16
    census_dtypes = {
        4: [int8] * 4,
        5: [int8] * 5,
        6: [int8] * 5 + [int16],
        7: [int8] * 5 + [int16] * 2,
        8: [int8] * 5 + [int16] * 3,
    }
    for d, tri in tris.items():
        assert [level_dtype(1, d, r) for r in range(1, d + 1)] == census_dtypes[d]
        vols = _assert_census_exact(tri.config.points, tri.rows)
        assert (vols > 0).any() and (vols < 0).any()


def test_census_matches_scalar_on_the_seeds_mixed_cells():
    # Each mixed cell of a seed spans lattice points of [0,m]^3, so the
    # census sees coordinate ranges 2 and 3. Every 4-subset of a cell's
    # points is a row, flat ones included.
    for sub in (seed_i3d1(), seed_i3d2()):
        cfg = minkowski_config(3, sub.m)
        where = {p: i for i, p in enumerate(cfg.points)}
        rows = sorted(
            {
                combo
                for cell in sub.cells
                for combo in itertools.combinations(
                    sorted(where[p] for p in cell_points(sub.base, cell)), 4
                )
            }
        )
        vols = _assert_census_exact(cfg.points, rows)
        assert (vols == 0).any() and (vols != 0).any()
        assert {max(p) for p in cfg.points} == set(range(sub.m + 1))


def test_census_matches_scalar_at_each_path_edge():
    # Points whose largest coordinate range is the last one of each path
    # and the first one past it: int8, int16, int32, int64, then Python
    # ints.
    rng = np.random.default_rng(6)
    for d in (2, 3, 5):
        for span in path_edges(d):
            pts = rng.integers(0, span + 1, size=(40, d)).tolist()
            pts[0][0], pts[1][0] = 0, span
            rows = np.sort(
                np.array([rng.choice(40, d + 1, replace=False) for _ in range(300)]),
                axis=1,
            )
            rows[::7, 1] = rows[::7, 0]  # repeated vertex: a dead matrix
            rows[::7].sort(axis=1)
            _assert_census_exact([tuple(p) for p in pts], rows)


def test_census_totals_past_int64_are_exact():
    # Two triangles of a square of side 2^31 on the Python-int path: each
    # volume is 2^62 and their sum 2^63 no longer fits int64.
    s = 2**31
    pts = ((0, 0), (s, 0), (0, s), (s, s))
    vols = _assert_census_exact(pts, [(0, 1, 3), (0, 2, 3)])
    assert vols.tolist() == [2**62, -(2**62)]
    assert batch_volumes_of(pts, [(0, 1, 3), (0, 2, 3), (0, 1, 2)]) == (3 * 2**62, 0)
    # at side 2^32 a volume is 2^64, which int64 cannot hold
    with pytest.raises(OverflowError):
        signed_volumes(tuple((2 * x, 2 * y) for x, y in pts), [(0, 1, 3)])


def test_census_takes_coordinates_beyond_int64():
    # a range that fits after the shift to a zero minimum is exact on the
    # batched path; a volume beyond int64 is the documented OverflowError
    assert signed_volumes([(2**70,), (2**70 + 1,)], [(0, 1)]).tolist() == [1]
    pts = [(2**70, 5), (2**70 + 2, 5), (2**70, 8)]
    _assert_census_exact(pts, [(0, 1, 2)])
    with pytest.raises(OverflowError, match="int64 cannot hold"):
        signed_volumes([(0,), (2**70,)], [(0, 1)])
    assert batch_det(np.array([[[2**70]]], dtype=object)).tolist() == [2**70]


# -- the command line ----------------------------------------------------------


def test_verify_volume_only_runs_the_ridge_check(tmp_path, capsys):
    tri = build_cube_recursive(PipelineSpec(dim=4))[0]
    good = os.fspath(tmp_path / "good.json")
    with open(good, "w") as fh:
        fh.write(triangulation_to_json(tri))
    assert main(["verify", good]) == 0
    assert "ridges: True (0 violations)" in capsys.readouterr().out

    swapped = tampered(tri, "overlap")
    assert validate_dissection(swapped, pairwise=False).is_dissection
    bad = os.fspath(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        fh.write(triangulation_to_json(swapped))
    assert triangulation_from_json(open(bad).read()).simplices == swapped.simplices
    assert main(["verify", bad]) == 1
    out = capsys.readouterr().out
    assert "volume census: True" in out and "ridges: False" in out


CENSUS_KINDS = ("not-full-dimensional", "degenerate", "volume-mismatch")


@pytest.mark.parametrize("kind", ["none", "drop", "duplicate", "overlap", "flat"])
def test_verify_volume_only_prints_both_reports(tmp_path, capsys, kind):
    """Plain ``verify`` prints, from one census, the output of the census
    report (``validate_dissection(pairwise=False)``) and the ridge report."""
    tri = build_cube_recursive(PipelineSpec(dim=4))[0]
    if kind == "flat":
        tri = DIAGONALS
    elif kind != "none":
        tri = tampered(tri, kind)
    path = os.fspath(tmp_path / "t.json")
    with open(path, "w") as fh:
        fh.write(triangulation_to_json(tri))
    census = validate_dissection(tri, pairwise=False)
    ridges = ridge_report(tri)
    shown = census.violations + [
        v for v in ridges.violations if v.kind not in CENSUS_KINDS
    ]
    expected = [
        f"volume census: {census.is_dissection} "
        f"(volume {census.volume_total}, {len(census.violations)} violations)",
        f"ridges: {ridges.is_face_to_face} ({len(ridges.violations)} violations)",
    ] + [f"  {v}" for v in shown[:10]]
    code = main(["verify", path])
    assert capsys.readouterr().out.splitlines() == expected
    assert code == (0 if census.is_dissection and ridges.is_face_to_face else 1)
    assert code == (0 if kind == "none" else 1)


@pytest.mark.parametrize("mode", ([],))  # verify's one mode; keeps the test ids
def test_verify_rejects_a_ragged_file(tmp_path, capsys, mode):
    tri = minimal_cube(3)
    path = os.fspath(tmp_path / "ragged.json")
    with open(path, "w") as fh:
        fh.write(reference_to_json(tri.config, tri.simplices + ((0, 1, 2),)))
    assert main(["verify", path, *mode]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("invalid file: ")
    assert "different sizes" in lines[0] and "Traceback" not in captured.err


def test_verify_rejects_the_removed_volume_only_flag(tmp_path, capsys):
    path = os.fspath(tmp_path / "t.json")
    with open(path, "w") as fh:
        fh.write(triangulation_to_json(minimal_cube(3)))
    for flag in ("--volume-only", "--face-to-face"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", path, flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_expect_keeps_the_q_dim_step(monkeypatch):
    from cubetri import cli

    specs = []

    class Stop(Exception):
        pass

    def capture(spec):
        specs.append(spec)
        raise Stop

    monkeypatch.setattr(cli, "build_cube_recursive", capture)
    with pytest.raises(Stop):
        main(["expect", "--q-dim", "10", "--seed", "i3d2", "--samples", "1"])
    (spec,) = specs
    assert spec.dim == 10 and spec.materialize_max_dim >= 10

