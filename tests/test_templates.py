"""Agreement of the template cell engine with the per-cell loop it replaced.

The references below are the earlier ``staircase.multi_staircases`` (one
``itertools.product`` over the blocks' staircases, one Python sort per
simplex) and ``coloring.iter_product_cells`` (one pass over the sigmas of
T_Q and the restricted T_0 cells of each). The template engine must give
the same simplices in the same order, and the same provenance, for every
product the pipeline or a caller can ask for: both seeds, the minimal and
unimodular cubes, balanced, random and explicit colorings (including ones
that leave colors absent from some cells), and chunked generation.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cubetri.coloring import (
    CellProvenance,
    Coloring,
    ProductCells,
    _check_inputs,
    lift_triangulation,
    make_coloring,
    product_blocks,
    product_size,
    triangulate_product,
)
from cubetri.complexes import Triangulation, factor_blocks, simplex_factor
from cubetri.geometry import PointConfiguration, product_config, simplex_config
from cubetri.pipeline import PipelineSpec, build_cube_recursive
from cubetri.seeds import cayley_seed, minimal_cube, unimodular_cube
from cubetri.staircase import (
    LiftedCell,
    monotone_paths,
    multi_staircases,
    signature_template,
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
    blocks_list = product_blocks(t0)
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


def test_templates_are_cached_and_read_only():
    tr, tc = signature_template((2, 3), (3, 2))
    assert signature_template((2, 3), (3, 2))[0] is tr
    assert tr.shape == tc.shape == (len(monotone_paths(2, 3)) * len(monotone_paths(3, 2)), 8)
    with pytest.raises(ValueError):
        tr[0, 0] = 1


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
