import json
import math
from fractions import Fraction

import pytest
from helpers import (
    cell_normalized_volume,
    cell_points,
    lift_provenance,
    mixed_weighted_size,
    reference_validate_mixed,
    type_weight,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from cubetri.cayley import (
    MixedCell,
    MixedSubdivision,
    count_area2_squares,
    mixed_from_json,
    mixed_to_json,
    mixed_to_triangulation,
    scale_mixed,
    summand_projection,
    triangulation_to_mixed,
    validate_mixed,
)
from cubetri.complexes import (
    factor_blocks,
    simplex_costs,
    validate_face_to_face,
    weighted_size,
)
from cubetri.geometry import cube_config, minkowski_config
from cubetri.seeds import cayley_seed, minimal_cube, seed_i3d1, seed_i3d2, square_family


def test_round_trip_i3d1():
    sub = seed_i3d1()
    tri = mixed_to_triangulation(sub)
    back = triangulation_to_mixed(tri)
    assert back.cells == sub.cells
    assert back.m == sub.m


def test_segment_case():
    # two triangles of segment x segment map to two cells of [0, 2]
    from helpers import two_triangle_prism

    tri = two_triangle_prism()
    sub = triangulation_to_mixed(tri)
    assert sub.m == 2 and len(sub.cells) == 2
    realized = sorted(
        tuple(sorted(sum(p) for p in _cell_pts(sub, c))) for c in sub.cells
    )
    assert realized == [(0, 1), (1, 2)]


def _cell_pts(sub, cell):
    return cell_points(sub.base, cell)


def test_cell_shapes_match_types():
    sub = seed_i3d1()
    tri = mixed_to_triangulation(sub)
    costs, den = simplex_costs(tri.config, tri.rows)
    for cell, s, cost in zip(sub.cells, tri.simplices, costs, strict=True):
        t = tuple(len(b) - 1 for b in factor_blocks(s, sub.m))
        assert cell.dims() == t
        assert Fraction(cost, den) == type_weight(s, tri.config)


def test_mixed_weighted_size_equals_cayley():
    for sub in (seed_i3d1(), square_family(3)):
        tri = mixed_to_triangulation(sub)
        assert mixed_weighted_size(sub) == weighted_size(tri)


def test_mixed_to_triangulation_rejects_non_fine():
    base = cube_config(2)
    # first summand is a full square, not a simplex
    bad = MixedSubdivision(base, 2, (MixedCell(((0, 1, 2, 3), (0,))),))
    with pytest.raises(ValueError):
        mixed_to_triangulation(bad)


def test_square_family_2_round_trip_weight():
    sub = square_family(2)
    tri = mixed_to_triangulation(sub)
    assert weighted_size(tri) == 3
    assert validate_face_to_face(tri).is_face_to_face


def test_scale_identity():
    sub = seed_i3d1()
    assert scale_mixed(sub, (1, 1)).cells == sub.cells


def test_scale_volumes():
    # square_family(2) scaled by (2,2): tiles [0,4]^2
    sub = scale_mixed(square_family(2), (2, 2))
    total = sum(cell_normalized_volume(sub.base, c) for c in sub.cells)
    assert total == 4**2 * math.factorial(2)
    # i3d1 scaled by (2,1): three summands tiling [0,3]^3
    sub = scale_mixed(seed_i3d1(), (2, 1))
    assert sub.m == 3
    total = sum(cell_normalized_volume(sub.base, c) for c in sub.cells)
    assert total == 27 * math.factorial(3)


def test_scaled_cell_volumes_match_lift_counts():
    # per-cell: the scaled Minkowski volume and the lifted-cell volume are
    # both products over blocks, tied to the same base determinant
    from cubetri.staircase import LiftedCell, multi_staircases

    t0 = cayley_seed("i3d1")
    kvec = (2, 1)
    _, prov, _ = lift_provenance(t0, kvec)
    assert [cell.tau_index for cell in prov] == list(range(t0.size))
    lifted_total = 0
    for cell in prov:
        staircases = multi_staircases(LiftedCell(cell.rows, cell.cols, sum(kvec)))
        assert len(staircases) == cell.end - cell.start
        base_vol = t0.volume_of(t0.simplices[cell.tau_index])
        lifted_total += base_vol * len(staircases)
    assert lifted_total == 60  # cube(3) x simplex(2) ambient volume


def test_count_area2_squares():
    assert count_area2_squares(square_family(2)) == 1
    assert count_area2_squares(square_family(5)) == 6
    # axis-parallel grid: no diagonal squares
    base = cube_config(2)
    h, v = (0, 2), (0, 1)
    grid = MixedSubdivision(
        base,
        2,
        (
            MixedCell((h, v)),
            MixedCell(((2,), (1,))) ,
        ),
    )
    assert count_area2_squares(grid) == 0


def test_summand_projection_square_family():
    for m in (2, 3, 4):
        sub = square_family(m)
        for i in range(m):
            proj = summand_projection(sub, i)
            assert proj.size == 2
            assert validate_face_to_face(proj).is_face_to_face
            # the two cells share one diagonal: either {0,3} or {1,2}
            shared = frozenset(proj.simplices[0]) & frozenset(proj.simplices[1])
            assert shared in (frozenset({0, 3}), frozenset({1, 2}))


def test_summand_projection_orientations_product():
    for m in (2, 3, 5):
        sub = square_family(m)
        a = b = 0
        for i in range(m):
            proj = summand_projection(sub, i)
            shared = frozenset(proj.simplices[0]) & frozenset(proj.simplices[1])
            if shared == frozenset({0, 3}):
                a += 1
            else:
                b += 1
        assert a + b == m
        assert a * b == (m * m) // 4
        assert count_area2_squares(sub) == a * b


def test_summand_projection_i3d1_is_minimal_triangulation():
    sub = seed_i3d1()
    proj = summand_projection(sub, 0)
    assert proj.size in (5, 6)
    assert validate_face_to_face(proj).is_face_to_face


def test_validate_mixed_catches_overlap():
    base = cube_config(2)
    bad = MixedSubdivision(
        base,
        1,
        (MixedCell(((0, 2, 3),)), MixedCell(((0, 2, 3),)), MixedCell(((0, 1, 3),))),
    )
    report = validate_mixed(bad)
    assert not report.is_dissection
    # the repeated triangle overlaps itself: its Cayley simplex's diagonal
    # lies in three simplices and its two boundary edges in two on one side
    assert [v.kind for v in report.violations] == [
        "volume-mismatch", "ridge-same-side", "ridge-overused", "ridge-same-side"
    ]


def test_validate_mixed_always_checks_fineness():
    # one summand is the whole square: not a simplex, so no Cayley simplex;
    # nor has a cell with a vertex that is not a point of the base
    for m, cell in ((2, ((0, 1, 2, 3), (0,))), (1, ((0, 2, 9),))):
        report = validate_mixed(MixedSubdivision(cube_config(2), m, (MixedCell(cell),)))
        assert [v.kind for v in report.violations] == ["not-fine", "volume-mismatch"]
        assert report.volume_total == 0


TAMPER_BASES = {
    "i3d1": seed_i3d1,
    "i3d2": seed_i3d2,
    **{f"square_family({m})": lambda m=m: square_family(m) for m in range(2, 6)},
}


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(sorted(TAMPER_BASES)),
    kind=st.sampled_from(("drop", "duplicate", "vertex", "outside")),
    data=st.data(),
)
def test_validate_mixed_agrees_with_the_reference_on_tamperings(name, kind, data):
    """Every tampering is rejected. A vertex moved outside the base
    (``outside``) has no point for the reference to realize; it must be
    one ``not-fine`` violation of the one cell that has it."""
    sub = TAMPER_BASES[name]()
    cells = list(sub.cells)
    i = data.draw(st.integers(0, len(cells) - 1), label="cell")
    if kind == "drop":
        del cells[i]
    elif kind == "duplicate":
        cells.insert(data.draw(st.integers(0, len(cells)), label="at"), cells[i])
    else:
        n = len(sub.base.points)
        summands = [list(b) for b in cells[i].summands]
        j = data.draw(st.integers(0, len(summands) - 1), label="summand")
        k = data.draw(st.integers(0, len(summands[j]) - 1), label="vertex")
        old = summands[j][k]
        inside = st.integers(0, n - 1).filter(lambda p: p != old)
        outside = st.integers(-3, -1) | st.integers(n, n + 3)
        summands[j][k] = data.draw(
            inside if kind == "vertex" else outside, label="new vertex"
        )
        cells[i] = MixedCell(tuple(map(tuple, summands)))
    bad = MixedSubdivision(sub.base, sub.m, tuple(cells))
    got = validate_mixed(bad)
    assert not got.is_dissection
    if kind == "outside":
        not_fine = [v.members for v in got.violations if v.kind == "not-fine"]
        assert not_fine == [(cells[i].summands,)]
        with pytest.raises(ValueError):
            mixed_to_triangulation(bad)
        with pytest.raises(ValueError):
            mixed_from_json(mixed_to_json(bad))
    else:
        assert got.is_dissection == reference_validate_mixed(bad).is_dissection


def test_validate_mixed_agrees_with_the_reference_on_valid_input():
    for sub in (seed_i3d1(), seed_i3d2(), *(square_family(m) for m in range(1, 8))):
        got, want = validate_mixed(sub), reference_validate_mixed(sub)
        assert got.is_dissection and want.is_dissection
        l = sub.base.dim
        assert got.volume_total == want.volume_total == sub.m**l * math.factorial(l)


def test_mixed_json_round_trip():
    sub = seed_i3d1()
    back = mixed_from_json(mixed_to_json(sub))
    assert back.cells == sub.cells and back.m == sub.m
    assert str(back.base.label) == "cube(3)"


BAD_M_AND_CELLS = [
    (0, [[0, 2, 3]]),
    (-1, [[0, 2, 3]]),
    (True, [[0, 2, 3]]),
    (1.0, [[0, 2, 3]]),
    ("1", [[0, 2, 3]]),
    (1, [[0, 2, 9]]),
    (1, [[0, 2, -1]]),
    (1, [[0, 2, 3.0]]),
    (1, [[0, 2, True]]),
    (1, [[0, 2, "3"]]),
]
GOOD = {"base": "cube(2)", "m": 1, "cells": [[[0, 2, 3]]]}


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(
            json.dumps({"base": "cube(2)", "m": m, "cells": [cell]}), id=f"{m}-cell{i}"
        )
        for i, (m, cell) in enumerate(BAD_M_AND_CELLS)
    ]
    + [
        pytest.param("[1]", id="list"),
        pytest.param(json.dumps({**GOOD, "cells": [5]}), id="cell 5"),
        pytest.param(json.dumps({**GOOD, "cells": 5}), id="cells 5"),
        pytest.param(json.dumps({**GOOD, "base": 3}), id="base 3"),
        pytest.param(json.dumps({"base": "cube(2)", "m": 1}), id="no cells"),
    ],
)
def test_mixed_from_json_rejects_bad_m_and_indices(text):
    mixed_from_json(json.dumps(GOOD))  # the document the bad ones edit reads
    with pytest.raises(ValueError):
        mixed_from_json(text)


def test_mixed_weighted_size_equals_cayley_i3d2():
    from cubetri.seeds import seed_i3d2

    sub = seed_i3d2()
    assert mixed_weighted_size(sub) == weighted_size(mixed_to_triangulation(sub))


def test_summand_projection_i3d1_second_copy():
    sub = seed_i3d1()
    proj = summand_projection(sub, 1)
    assert proj.size in (5, 6)
    assert validate_face_to_face(proj).is_face_to_face


def test_scaled_cells_match_lift_cells_per_cell():
    # the scaled Minkowski cell and the lifted cell of the same base cell
    # both factor through the base determinant: dividing each volume by its
    # combinatorial factor must give the same integer, cell by cell
    from fractions import Fraction

    from cubetri.staircase import LiftedCell, multi_staircase_count, multi_staircases

    t0 = cayley_seed("i3d1")
    sub = seed_i3d1()
    kvec = (2, 2)
    scaled = scale_mixed(sub, kvec)
    _, prov, _ = lift_provenance(t0, kvec)
    assert [cell.tau_index for cell in prov] == list(range(t0.size))
    lifted_cfg_vol_check = 0
    for s, base_cell, scaled_cell, lc in zip(t0.simplices, sub.cells, scaled.cells, prov):
        dims = base_cell.dims()
        l = sum(dims)
        comb_scaled = Fraction(math.factorial(l))
        for k, t in zip(kvec, dims):
            comb_scaled = comb_scaled * k**t / math.factorial(t)
        det_from_scaled = cell_normalized_volume(scaled.base, scaled_cell) / comb_scaled
        count = len(multi_staircases(LiftedCell(lc.rows, lc.cols, sum(kvec))))
        assert count == lc.end - lc.start
        comb_lift = 1
        for k, t in zip(kvec, dims):
            comb_lift *= multi_staircase_count([t + 1], [k])
        assert count == comb_lift
        det_from_lift = Fraction(count * t0.volume_of(s), comb_lift)
        assert det_from_scaled == det_from_lift == t0.volume_of(s)
        lifted_cfg_vol_check += count * t0.volume_of(s)
    # total matches the ambient volume of cube(3) x simplex(3)
    assert lifted_cfg_vol_check == 120


def test_every_weight_comes_from_simplex_costs(monkeypatch):
    # The weighted size, the mixed volume and the seeds' weight check all
    # weigh cells by complexes.simplex_costs, and by nothing else.
    from cubetri import cayley, complexes, oracle, seeds
    from cubetri.oracle import SearchProblem, min_weighted_size

    sub = seed_i3d1()
    tri = cayley_seed("i3d1")

    def no_costs(config, rows):
        raise RuntimeError("a cell was weighed")

    for module in (complexes, cayley, oracle):
        monkeypatch.setattr(module, "simplex_costs", no_costs)
    with pytest.raises(RuntimeError, match="weighed"):
        weighted_size(tri)
    with pytest.raises(RuntimeError, match="weighed"):
        validate_mixed(sub)
    with pytest.raises(RuntimeError, match="weighed"):
        min_weighted_size(SearchProblem(cube_config(2)))
    seeds._seed.cache_clear()
    with pytest.raises(RuntimeError, match="weighed"):
        cayley_seed("i3d1")
    monkeypatch.undo()
    assert cayley_seed("i3d1") == tri


@pytest.mark.parametrize("l", [17, 40])
def test_mixed_from_json_sizes_the_base_before_building_it(monkeypatch, l):
    from cubetri import geometry

    def refuse(label):
        raise AssertionError(f"built the points of {label}")

    monkeypatch.setattr(geometry, "_points", refuse)
    text = json.dumps({"base": f"cube({l})", "m": 1, "cells": []})
    with pytest.raises(ValueError, match="more than 65536 points"):
        mixed_from_json(text)


@pytest.mark.parametrize(
    "base, m",
    [("cube(1)", 725), ("cube(1)", 10**100), ("cube(16)", 2), ("simplex(2000)", 1)],
)
def test_mixed_from_json_sizes_the_cayley_configuration_before_building_it(
    monkeypatch, base, m
):
    # base x simplex(m-1): len(base) m points of dimension l + m - 1, past
    # MIXED_CAYLEY_GUARD coordinates; cube(1) at m = 725 is 2 725 725
    from cubetri import geometry

    def refuse(label):
        raise AssertionError(f"built the points of {label}")

    monkeypatch.setattr(geometry, "_points", refuse)
    text = json.dumps({"base": base, "m": m, "cells": []})
    with pytest.raises(ValueError, match="than MIXED_CAYLEY_GUARD = 1048576"):
        mixed_from_json(text)


@pytest.mark.parametrize(
    "sub",
    [
        seed_i3d1(),
        seed_i3d2(),
        square_family(5),
        MixedSubdivision(minkowski_config(3, 3), 1, (MixedCell(((0, 1, 4, 13),)),)),
        MixedSubdivision(cube_config(16), 1, ()),
        square_family(64),
        MixedSubdivision(cube_config(1), 724, ()),
    ],
    ids=["i3d1", "i3d2", "square_family(5)", "minkowski(cube(3),3)", "cube(16)",
         "square_family(64)", "cube(1) at m = 724"],
)
def test_mixed_json_round_trips_within_the_base_guard(sub):
    back = mixed_from_json(mixed_to_json(sub))
    assert (back.base, back.m, back.cells) == (sub.base, sub.m, sub.cells)


def test_a_triangulation_with_no_simplex_factor_is_an_m1_subdivision():
    # cube(3) is cube(3) x simplex(0): one summand per cell, the cell itself
    tri = minimal_cube(3)
    sub = triangulation_to_mixed(tri)
    assert (sub.base, sub.m) == (tri.config, 1)
    assert [c.summands for c in sub.cells] == [(s,) for s in tri.simplices]
    back = mixed_to_triangulation(sub)
    assert str(back.config.label) == "cube(3)xsimplex(0)"
    assert back.rows.tolist() == tri.rows.tolist()
    assert validate_mixed(sub).is_dissection
