"""Agreement of the template cell engine with the per-cell loop it replaced.

The references below are the earlier ``staircase.multi_staircases`` (one
``itertools.product`` over the blocks' staircases, one Python sort per
simplex) and ``coloring.iter_product_cells`` (one pass over the sigmas of
T_Q and the restricted T_0 cells of each). The template engine must give
the same simplices in the same order, and the same provenance, for every
product the pipeline or a caller can ask for: both seeds, the minimal and
unimodular cubes, balanced, random and explicit colorings (including ones
that leave colors absent from some cells), and chunked generation. The
engine's cell records (``provenance()``) must equal those of the
per-signature rule it replaced, and a step must build each distinct
block's table and certificate once, and nothing per cell.
"""

import functools
import itertools
import sys
from collections import Counter
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from helpers import reference_cell_records

from cubetri import pipeline, staircase
from cubetri.cli import main
from cubetri.coloring import (
    CellProvenance,
    Coloring,
    ProductCells,
    _check_inputs,
    lift_triangulation,
    make_coloring,
    product_size,
    triangulate_product,
)
from cubetri.complexes import Triangulation, factor_blocks, simplex_factor
from cubetri.geometry import PointConfiguration, product_config, simplex_config
from cubetri.pipeline import PipelineSpec, build_cube_recursive
from cubetri.seeds import cayley_seed, minimal_cube, unimodular_cube
from cubetri.staircase import (
    LiftedCell,
    block_paths,
    monotone_paths,
    multi_staircases,
    staircase_block_regular,
)
from cubetri.verification import StructuredChecker

# -- references: the per-cell loop ---------------------------------------------


def reference_multi_staircases(cell):
    per_block = [monotone_paths(len(r), len(c)) for r, c in zip(cell.rows, cell.cols)]
    out = []
    for combo in itertools.product(*per_block):
        verts = []
        for (rows, cols), path in zip(zip(cell.rows, cell.cols), combo):
            for h, j in path:
                verts.append(rows[h] * cell.n_target + cols[j])
        out.append(tuple(sorted(verts)))
    return out


def reference_product_cells(t_q, t0, coloring):
    """(provenance, simplices) per (sigma, tau) cell, in output order."""
    m = _check_inputs(t_q, t0, coloring)
    nq = len(t_q.config.points)
    blocks_list = t0.blocks
    start = 0
    for sigma in t_q.simplices:
        sigma_by_color = [[] for _ in range(m)]
        for q in sigma:
            sigma_by_color[coloring.colors[q]].append(q)
        present = tuple(i for i in range(m) if sigma_by_color[i])
        cols = tuple(tuple(sigma_by_color[i]) for i in present)
        for t_idx, blocks in enumerate(blocks_list):
            # the restriction of T_0 to the face of the present colors
            if any(len(blocks[i]) != 1 for i in range(m) if i not in present):
                continue
            rows = tuple(blocks[i] for i in present)
            simplices = reference_multi_staircases(LiftedCell(rows, cols, nq))
            end = start + len(simplices)
            yield CellProvenance(sigma, t_idx, rows, cols, start, end), simplices
            start = end


def reference_lift_cells(t0, kvec):
    """The lifted cells of t0 by kvec, one per simplex: its factor blocks
    as rows, and k_i consecutive columns of simplex(n-1) per block, the
    columns of block i after those of the blocks before it."""
    _, m = simplex_factor(t0.config)
    bounds = list(itertools.accumulate(kvec, initial=0))
    cols = tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:]))
    return [LiftedCell(factor_blocks(s, m), cols, bounds[-1]) for s in t0.simplices]


def reference_lift(t0, kvec):
    out = []
    for cell in reference_lift_cells(t0, kvec):
        out.extend(reference_multi_staircases(cell))
    return out


# -- inputs --------------------------------------------------------------------


def seed(name):
    # a cube triangulation is its own seed, with m = 1
    if name == "minimal":
        return minimal_cube(3)
    if name == "unimodular":
        return unimodular_cube(3)
    return cayley_seed(name)


SEEDS = ("i3d1", "i3d2", "minimal", "unimodular")
PROV_FIELDS = ("sigma", "tau_index", "rows", "cols", "start", "end")


def colorings(nq, m):
    """Balanced, two random and two explicit colorings of nq vertices: all
    vertices one color (every other color absent everywhere), and color 0
    on the first vertex only (absent from the cells that miss it)."""
    out = [make_coloring(nq, m, "balanced")]
    out += [make_coloring(nq, m, "random", rng_seed=s) for s in (1, 2)]
    out.append(Coloring((m - 1,) * nq, m))
    out.append(Coloring((0,) + tuple(1 % m for _ in range(nq - 1)), m))
    return out


def assert_same_as_reference(t_q, t0, coloring):
    ref = list(reference_product_cells(t_q, t0, coloring))
    ref_simplices = [s for _, cell in ref for s in cell]
    tri, prov = triangulate_product(t_q, t0, coloring, with_provenance=True)
    assert list(tri.simplices) == ref_simplices
    assert len(prov) == len(ref)
    for got, (want, _) in zip(prov, ref):
        for name in PROV_FIELDS:
            assert getattr(got, name) == getattr(want, name), name
            assert type(getattr(got, name)) is type(getattr(want, name)), name
    assert tri.size == product_size(t_q, t0, coloring)
    return ref_simplices


# -- tests ---------------------------------------------------------------------


@pytest.mark.parametrize("seed_name", SEEDS)
@pytest.mark.parametrize("q_dim", (1, 2, 3))
def test_engine_matches_reference_on_minimal_cubes(seed_name, q_dim):
    t0 = seed(seed_name)
    t_q = minimal_cube(q_dim)
    _, m = simplex_factor(t0.config)
    for coloring in colorings(len(t_q.config.points), m):
        assert_same_as_reference(t_q, t0, coloring)


@pytest.mark.parametrize("dim", (4, 5, 6))
def test_engine_matches_reference_on_pipeline_outputs(dim):
    t_q, _ = build_cube_recursive(PipelineSpec(dim=dim, samples=3, rng_seed=1))
    nq = len(t_q.config.points)
    cases = [("i3d2", make_coloring(nq, 3, "random", rng_seed=dim))]
    if dim < 6:  # the other seeds at d=4 and 5 only, to keep the run short
        cases += [
            ("i3d1", make_coloring(nq, 2, "balanced")),
            ("minimal", make_coloring(nq, 1, "balanced")),
            ("unimodular", make_coloring(nq, 1, "balanced")),
            ("i3d2", Coloring((0,) * (nq - 1) + (1,), 3)),
        ]
    for name, coloring in cases:
        assert_same_as_reference(t_q, seed(name), coloring)


@pytest.mark.parametrize("max_rows", (1, 7, 100, 10**6))
def test_chunks_concatenate_to_the_reference_order(max_rows):
    t_q, _ = build_cube_recursive(PipelineSpec(dim=4, samples=3, rng_seed=1))
    t0 = cayley_seed("i3d2")
    coloring = make_coloring(len(t_q.config.points), 3, "random", rng_seed=5)
    ref = [s for _, cell in reference_product_cells(t_q, t0, coloring) for s in cell]
    cells = ProductCells(t_q, t0, coloring)
    chunks = list(cells.chunks(max_rows))
    assert [tuple(r) for c in chunks for r in c.tolist()] == ref
    # whole sigmas per chunk: at most max_rows rows unless one sigma has more
    per_sigma = max(b - a for a, b in zip(cells.starts, cells.starts[1:]))
    assert max(len(c) for c in chunks) <= max(max_rows, per_sigma)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed_name=st.sampled_from(("i3d1", "i3d2")),
    q_dim=st.sampled_from((2, 3)),
    data=st.data(),
)
def test_engine_matches_reference_on_random_colorings(seed_name, q_dim, data):
    t0 = seed(seed_name)
    _, m = simplex_factor(t0.config)
    t_q = minimal_cube(q_dim)
    nq = len(t_q.config.points)
    colors = data.draw(st.lists(st.integers(0, m - 1), min_size=nq, max_size=nq))
    assert_same_as_reference(t_q, t0, Coloring(tuple(colors), m))


@pytest.mark.parametrize("seed_name", SEEDS)
def test_lift_triangulation_matches_reference(seed_name):
    t0 = seed(seed_name)
    left, m = simplex_factor(t0.config)
    for kvec in itertools.product((1, 2, 3), repeat=m):
        lifted = lift_triangulation(t0, kvec)
        assert list(lifted.simplices) == reference_lift(t0, kvec)
        want = product_config(PointConfiguration(left), simplex_config(sum(kvec) - 1))
        assert lifted.config == want


def test_multi_staircases_matches_reference_per_cell():
    t0 = cayley_seed("i3d2")
    for kvec in ((1, 1, 1), (2, 3, 1), (4, 2, 3)):
        for cell in reference_lift_cells(t0, kvec):
            assert multi_staircases(cell) == reference_multi_staircases(cell)
    # arbitrary labels, not only the canonical lift's consecutive columns
    cell = LiftedCell(((0, 5), (2,), (1, 3, 4)), ((7, 9), (3, 8), (1,)), 10)
    assert multi_staircases(cell) == reference_multi_staircases(cell)


def test_block_tables_are_cached_and_read_only():
    paths = block_paths(2, 3)
    assert block_paths(2, 3) is paths
    assert paths.shape == (len(monotone_paths(2, 3)), 4, 2)
    assert paths.tolist() == [list(map(list, path)) for path in monotone_paths(2, 3)]
    with pytest.raises(ValueError):
        paths[0, 0, 0] = 1
    # a cell of signature ((2, 3), (3, 2)) is the product of two tables
    cell = LiftedCell(((0, 1), (2, 3, 4)), ((0, 1, 2), (3, 4)), 5)
    simplices = multi_staircases(cell)
    assert len(simplices) == len(block_paths(2, 3)) * len(block_paths(3, 2))
    assert {len(s) for s in simplices} == {8}


def test_structured_checker_catches_swapped_simplices_inside_a_cell():
    # Same simplices, same cell, other order: volumes, counts and the
    # pairwise checks all pass, and only the recomputed run differs.
    t_q = minimal_cube(2)
    t0 = cayley_seed("i3d2")
    coloring = make_coloring(4, 3, "balanced")
    tri, prov = triangulate_product(t_q, t0, coloring, with_provenance=True)
    cell = next(c for c in prov if c.end - c.start >= 2)
    simplices = list(tri.simplices)
    a, b = cell.start, cell.end - 1
    simplices[a], simplices[b] = simplices[b], simplices[a]
    swapped = Triangulation(tri.config, tuple(simplices))
    assert StructuredChecker(tri, prov, coloring).run().is_face_to_face
    report = StructuredChecker(swapped, prov, coloring).run()
    assert not report.is_face_to_face
    kinds = [v.kind for v in report.violations]
    assert kinds == ["cell-simplices-mismatch"]
    assert report.violations[0].members == (cell.sigma, cell.tau_index)


# -- the records and the per-block work of a step ---------------------------------


@functools.cache
def default_steps():
    """(t_q, t0, coloring) of every step of the default d = 4..8 builds."""
    steps = []
    real = pipeline.ProductCells

    def recorded(t_q, t0, coloring):
        steps.append((t_q, t0, coloring))
        return real(t_q, t0, coloring)

    with mock.patch.object(pipeline, "ProductCells", recorded):
        for d in range(4, 9):
            build_cube_recursive(PipelineSpec(dim=d, samples=3, rng_seed=1))
    return steps


def clear_staircase_caches():
    for cached in (monotone_paths, block_paths, staircase_block_regular):
        cached.cache_clear()


@pytest.fixture
def cold_staircases():
    clear_staircase_caches()
    yield
    clear_staircase_caches()


def types(x):
    """The types of x and of everything inside it, nested as x is."""
    if isinstance(x, tuple):
        return tuple, tuple(map(types, x))
    return type(x)


def minimal_cube_cases():
    for seed_name, q_dim in itertools.product(SEEDS, (1, 2, 3)):
        t0, t_q = seed(seed_name), minimal_cube(q_dim)
        _, m = simplex_factor(t0.config)
        for coloring in colorings(len(t_q.config.points), m):
            yield t_q, t0, coloring


@pytest.mark.parametrize("cases", ["default builds", "minimal cubes"])
def test_records_match_the_per_signature_rule(cases, cold_staircases):
    steps = default_steps() if cases == "default builds" else minimal_cube_cases()
    for t_q, t0, coloring in steps:
        clear_staircase_caches()
        cold = ProductCells(t_q, t0, coloring)
        provenance = reference_cell_records(t_q, t0, coloring)
        for cells in (cold, ProductCells(t_q, t0, coloring)):  # then warm
            records = cells.provenance()
            assert records == provenance
            for name in PROV_FIELDS:
                want = [types(getattr(r, name)) for r in provenance]
                assert [types(getattr(r, name)) for r in records] == want, name


def test_a_step_builds_each_block_once_and_nothing_per_cell(
    monkeypatch, cold_staircases
):
    # The streamed d=8 step with cold caches: one table and one regularity
    # certificate per distinct block (l, k), and no Python function (but
    # the recursion of monotone_paths) called once per (key, T_0 cell) pair.
    t_q, t0, coloring = default_steps()[-1]
    assert t_q.config.dim == 5 and simplex_factor(t0.config)[1] == 3
    provenance = reference_cell_records(t_q, t0, coloring)
    blocks = {(len(r), len(c)) for p in provenance for r, c in zip(p.rows, p.cols)}
    size = product_size(t_q, t0, coloring)
    assert size == 16282
    colors = [tuple(sorted(coloring.colors[q] for q in r.sigma)) for r in provenance]
    pairs = {(key, r.tau_index) for key, r in zip(colors, provenance)}
    assert len(pairs) == 414
    clear_staircase_caches()
    tables, certificates = Counter(), Counter()
    for owner, name, seen in (
        (staircase, "monotone_paths", tables),
        (pipeline, "staircase_block_regular", certificates),
    ):

        def counted(l, k, real=getattr(owner, name), seen=seen):
            seen[l, k] += 1
            return real(l, k)

        monkeypatch.setattr(owner, name, counted)
    calls = Counter()

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_name != "walk":
            calls[frame.f_code] += 1

    sys.setprofile(count)
    try:
        step = pipeline._product_step(
            t_q, t0, coloring, size, keep=False, certify=False
        )
    finally:
        sys.setprofile(None)
    assert step.volume_ok and step.dissection
    assert tables == certificates == Counter(blocks)
    assert set(tables.values()) == {1}
    busiest = max(calls.values())
    assert busiest < len(pairs), [c.co_name for c, n in calls.items() if n == busiest]


def lose_a_staircase(monkeypatch):
    """Drop the last staircase of the (2, 3) block (caches cold)."""
    real = staircase.monotone_paths

    def one_short(l, k):
        paths = real(l, k)
        return paths[:-1] if (l, k) == (2, 3) else paths

    monkeypatch.setattr(staircase, "monotone_paths", one_short)


@pytest.mark.parametrize("dim", [8, 7], ids=["streamed-d8", "kept-d7"])
def test_a_lost_staircase_fails_the_build(monkeypatch, cold_staircases, dim):
    # The (2, 3) block of the last step's cells loses a staircase: the
    # enumeration falls short of its closed-form size, so the step's census
    # fails it, with no exception, and the block fails its certificate.
    lose_a_staircase(monkeypatch)
    assert not pipeline._blocks_certified([(2, 3)])
    spec = PipelineSpec(dim=dim, samples=3, rng_seed=1, materialize_max_dim=7)
    tri, report = build_cube_recursive(spec)
    first, last = report.steps
    assert first.ok and (tri is None) == (dim == 8)
    assert last.dim_to == dim and last.size == report.sizes[dim]
    assert last.volume_ok is False and last.dissection_certified is False
    assert last.ok is False and report.ok is False


def test_a_lost_staircase_fails_build_on_the_command_line(
    monkeypatch, capsys, cold_staircases
):
    lose_a_staircase(monkeypatch)
    argv = ["build", "cube", "--dim", "8", "--samples", "3", "--rng-seed", "1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0].startswith("step 2->5:") and "volume_ok=True" in lines[0]
    assert lines[1].startswith("step 5->8: seed=i3d2 m=3 size=16282 ")
    assert "volume_ok=False" in lines[1] and "dissection=False" in lines[1]
    assert lines[2] == "final size for dimension 8: 16282"
    assert "Traceback" not in captured.out + captured.err


def test_a_lost_staircase_stops_the_build_at_its_step(
    monkeypatch, tmp_path, capsys, cold_staircases
):
    # At d=10 the kept 4->7 step loses a staircase of its (2, 3) block and
    # fails its census. The build stops there: no 7->10 step is built on
    # the failed rows, so there is no triangulation, no size for d=10 and
    # no file, and build exits 1 after the lines of the steps that ran.
    lose_a_staircase(monkeypatch)
    built = []
    real = ProductCells.__init__

    def counted(self, t_q, t0, coloring):
        built.append(t_q.config.dim)
        real(self, t_q, t0, coloring)

    monkeypatch.setattr(ProductCells, "__init__", counted)
    out = tmp_path / "d10.json"
    spec = PipelineSpec(dim=10, samples=3, rng_seed=1, out=str(out))
    tri, report = build_cube_recursive(spec)
    assert tri is None and built == [1, 4] and not out.exists()
    first, last = report.steps
    assert first.ok and last.dim_to == 7 and last.size == report.sizes[7]
    assert last.volume_ok is False and last.ok is False and report.ok is False
    assert 10 not in report.sizes
    with pytest.raises(pipeline.VerificationFailed, match="failed at d=7$"):
        report.check()
    argv = ["build", "cube", "--dim", "10", "--samples", "3", "--rng-seed", "1"]
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["step 1->4", "step 4->7"]
    assert "volume_ok=False" in lines[1] and "dissection=False" in lines[1]
    assert lines[2:] == ["stopped at the failed step to d=7"]
    assert not out.exists() and "Traceback" not in captured.out + captured.err
