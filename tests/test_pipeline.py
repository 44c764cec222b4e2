import hashlib
import math
import os
from fractions import Fraction

import pytest

from cubetri import pipeline
from cubetri.complexes import efficiency, triangulation_from_json, validate_dissection
from cubetri.pipeline import (
    PipelineSpec,
    build_cube_haiman,
    build_cube_recursive,
    haiman_baseline_sizes,
    report_table,
)
from cubetri.seeds import hadamard_lower, minimal_cube


def test_build_d4_identity():
    tri, rep = build_cube_recursive(PipelineSpec(dim=4))
    assert rep.sizes[4] == 16
    assert rep.ok
    assert rep.steps[0].face_to_face is True


def test_build_d5_valid():
    tri, rep = build_cube_recursive(PipelineSpec(dim=5))
    assert rep.ok and rep.steps[-1].face_to_face is True
    assert rep.sizes[5] >= 67  # cannot beat the known minimum
    assert efficiency(rep.sizes[5], 5) >= hadamard_lower(5)


def test_build_d7_dissection_tier():
    # Every kept step is certified by the ridge check; only a streamed step
    # falls back to the dissection tier.
    tri, rep = build_cube_recursive(PipelineSpec(dim=7))
    assert rep.ok
    assert all(st.face_to_face is True for st in rep.steps)
    assert rep.steps[-1].dissection_certified
    assert rep.sizes[7] >= 1493
    tri, rep = build_cube_recursive(PipelineSpec(dim=7, materialize_max_dim=6))
    assert tri is None and rep.ok
    last = rep.steps[-1]
    assert last.face_to_face is None and last.dissection_certified
    assert rep.steps[0].face_to_face is True


def test_failed_seed_verification_fails_the_build(monkeypatch):
    real = pipeline.cayley_seed

    def failing(name):
        if name == "i3d2":
            raise AssertionError("i3d2: invalid subdivision")
        return real(name)

    monkeypatch.setattr(pipeline, "cayley_seed", failing)
    with pytest.raises(AssertionError, match="i3d2"):
        build_cube_recursive(PipelineSpec(dim=5))


def test_sampling_keeps_best():
    _, rep1 = build_cube_recursive(PipelineSpec(dim=5, samples=1))
    _, rep4 = build_cube_recursive(PipelineSpec(dim=5, samples=4, rng_seed=11))
    assert rep4.sizes[5] <= rep1.sizes[5]
    assert rep4.ok
    # deterministic given the seed
    _, rep4b = build_cube_recursive(PipelineSpec(dim=5, samples=4, rng_seed=11))
    assert rep4b.sizes == rep4.sizes


def test_haiman_sizes():
    t2, t3 = minimal_cube(2), minimal_cube(3)
    assert build_cube_haiman(4, (2, 2), t2, t2).size == 24
    assert build_cube_haiman(6, (3, 3), t3, t3).size == 500
    assert build_cube_haiman(2, (1, 1), minimal_cube(1), minimal_cube(1)).size == 2


def test_haiman_submultiplicativity():
    base = haiman_baseline_sizes(8)
    for k in range(1, 5):
        for l in range(1, 4):
            d = k + l
            lhs = base[d] / math.factorial(d)
            rhs = (base[k] / math.factorial(k)) * (base[l] / math.factorial(l))
            assert lhs <= rhs + 1e-12


def test_output_file_round_trip(tmp_path):
    path = os.fspath(tmp_path / "t5.json")
    _, rep = build_cube_recursive(PipelineSpec(dim=5, out=path))
    with open(path) as fh:
        tri = triangulation_from_json(fh.read())
    assert tri.size == rep.sizes[5]
    assert validate_dissection(tri, pairwise=False).volume_total == math.factorial(5)


def test_report_table():
    csv_text = report_table(7)
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("d,size,efficiency,bound,hadamard,smith")
    assert "0.8159" in csv_text and "0.8355" in csv_text
    row7 = next(line for line in lines if line.startswith("7,"))
    assert "0.840" in row7 and "1493" in row7


def test_cli_smoke(tmp_path, capsys):
    from cubetri.cli import main

    out = os.fspath(tmp_path / "t4.json")
    assert main(["build", "cube", "--dim", "4", "--out", out]) == 0
    assert main(["verify", out, "--face-to-face"]) == 0
    assert main(["seeds", "show", "i3d1"]) == 0
    assert main(["oracle", "min-weighted", "--config", "i1d1"]) == 0
    csvp = os.fspath(tmp_path / "r.csv")
    assert main(["report", "table", "--max-dim", "5", "--out", csvp]) == 0
    with open(csvp) as fh:
        assert "0.8159" in fh.read()
    capsys.readouterr()


@pytest.mark.parametrize(
    "kw, match",
    [
        ({"seed": "foo"}, "unknown seed"),
        ({"seed": "I3D2"}, "unknown seed"),
        ({"l": 2}, "requires l == 3"),
        ({"seed": "i3d1", "l": 4, "m": 2}, "requires l == 3"),
        ({"samples": 0}, "must be positive"),
    ],
)
def test_spec_rejects_seeds_it_cannot_build(kw, match):
    with pytest.raises(ValueError, match=match):
        PipelineSpec(dim=5, **kw)


def test_spec_takes_a_block_seed_of_one_color_or_a_plain_seed_at_any_l():
    for kw in ({"l": 2, "m": 1}, {"l": 2, "seed": "minimal"},
               {"l": 4, "seed": "unimodular"}):
        spec = PipelineSpec(dim=5, **kw)
        assert pipeline._pick_seed(spec, 3)[1] == 1


@pytest.mark.parametrize("argv", [["--seed", "foo"], ["--seed", "I3D2"]])
def test_cli_build_rejects_an_unknown_seed(capsys, argv):
    from cubetri.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["build", "cube", "--dim", "5", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "invalid choice" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "argv, match",
    [(["--l", "2"], "requires l == 3"), (["--samples", "0"], "must be positive")],
)
def test_cli_build_prints_one_line_for_an_invalid_spec(capsys, argv, match):
    from cubetri.cli import main

    assert main(["build", "cube", "--dim", "5", *argv]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("invalid spec: ")
    assert match in lines[0] and captured.out == ""


def test_ridge_mode_agrees_on_pipeline_output():
    from cubetri.complexes import ridge_report, validate_dissection

    tri, rep = build_cube_recursive(PipelineSpec(dim=5))
    fast = ridge_report(tri)
    assert fast.is_dissection
    assert validate_dissection(tri, pairwise=False).volume_total == math.factorial(5)


def test_streamed_final_step_matches_materialized(tmp_path):
    streamed_path = os.fspath(tmp_path / "stream.json")
    spec_stream = PipelineSpec(dim=5, materialize_max_dim=4, out=streamed_path)
    tri_none, rep_s = build_cube_recursive(spec_stream)
    assert tri_none is None and rep_s.ok
    tri, rep_m = build_cube_recursive(PipelineSpec(dim=5))
    assert rep_s.sizes == rep_m.sizes
    loaded = triangulation_from_json(open(streamed_path).read())
    assert loaded.simplices == tri.simplices


def test_cli_expect_and_volume_only(tmp_path, capsys):
    from cubetri.cli import main

    assert main(["expect", "--q-dim", "2", "--m", "2", "--samples", "4",
                 "--rng-seed", "1"]) == 0
    out = os.fspath(tmp_path / "t5.json")
    assert main(["build", "cube", "--dim", "5", "--out", out]) == 0
    assert main(["verify", out]) == 0
    assert main(["seeds", "show", "square_family(4)"]) == 0
    assert main(["seeds", "show", "minimal_cube(3)"]) == 0
    assert main(["seeds", "show", "unimodular_cube(3)"]) == 0
    assert main(["seeds", "show", "nonsense"]) == 2
    capsys.readouterr()


def test_cli_expect_clamps_m_like_build(capsys):
    from cubetri.cli import main

    # a 2-cube has 3 vertices per simplex, so at most 3 colors are usable
    assert main(["expect", "--q-dim", "2", "--m", "4", "--samples", "2",
                 "--rng-seed", "1"]) == 0
    header, row = capsys.readouterr().out.splitlines()[:2]
    assert header.split(",")[1] == "m"
    assert row.split(",")[:2] == ["5", "3"]


def test_trivial_dims_return_minimal_cubes():
    for d in (1, 2, 3):
        tri, rep = build_cube_recursive(PipelineSpec(dim=d))
        assert rep.ok and rep.sizes == {d: minimal_cube(d).size}
        assert tri.size == minimal_cube(d).size


# The d=8 file of samples=3, rng_seed=1 with the last step streamed: it pins
# the simplices, their order and the file format.
D8_SHA256 = "32d8fc648947d248afd185c74d9d0428252e4776bf356256a3d562093a105f20"
D8_BYTES = 708_036


def _d8_file(tmp_path, materialize_max_dim):
    path = tmp_path / f"d8-{materialize_max_dim}.json"
    spec = PipelineSpec(dim=8, samples=3, rng_seed=1, out=os.fspath(path),
                        materialize_max_dim=materialize_max_dim,
                        face_check_max_dim=4)
    tri, rep = build_cube_recursive(spec)
    assert rep.ok and rep.sizes[8] == 16282
    return tri, path.read_bytes()


def test_streamed_d8_file_is_pinned(tmp_path):
    tri, data = _d8_file(tmp_path, 7)
    assert tri is None
    assert len(data) == D8_BYTES
    assert hashlib.sha256(data).hexdigest() == D8_SHA256


def test_materialized_d8_file_matches_streamed_bytes(tmp_path):
    tri, data = _d8_file(tmp_path, 8)
    assert tri is not None and tri.size == 16282
    assert data == _d8_file(tmp_path, 7)[1]


def test_cli_expect_prints_the_exact_value_past_enumeration(capsys):
    from cubetri.cli import main

    # 3^16 colorings of the 4-cube's vertices: too many to enumerate, and
    # the multinomial sum still gives the exact value
    assert main(["expect", "--q-dim", "4", "--m", "3", "--samples", "2",
                 "--rng-seed", "1"]) == 0
    header, row = capsys.readouterr().out.splitlines()[:2]
    assert header.split(",")[-1] == "expected_exact"
    exact = Fraction(row.split(",")[-1])
    assert exact > 0
