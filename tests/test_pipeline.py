import hashlib
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from cubetri import pipeline
from cubetri.complexes import (
    efficiency,
    triangulation_from_json,
    triangulation_to_json,
    validate_dissection,
)
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
    assert build_cube_haiman(t2, t2).size == 24
    assert build_cube_haiman(t3, t3).size == 500
    assert build_cube_haiman(minimal_cube(1), minimal_cube(1)).size == 2


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


def test_report_table_checks_every_spec_before_any_build(monkeypatch):
    # d=13 puts a middle step above the streamed limit: its spec is refused
    # before d=11 and d=12 are built
    built = []
    monkeypatch.setattr(
        pipeline, "build_cube_recursive", lambda spec: built.append(spec)
    )
    with pytest.raises(ValueError, match="streamed"):
        report_table(13)
    assert built == []


def test_cli_smoke(tmp_path, capsys):
    from cubetri.cli import main

    out = os.fspath(tmp_path / "t4.json")
    assert main(["build", "cube", "--dim", "4", "--out", out]) == 0
    assert main(["verify", out]) == 0
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
        ({"seed": "i3d1", "l": 4}, "requires l == 3"),
        ({"samples": 0}, "must be positive"),
    ],
)
def test_spec_rejects_seeds_it_cannot_build(kw, match):
    with pytest.raises(ValueError, match=match):
        PipelineSpec(dim=5, **kw)


def test_spec_takes_a_block_seed_of_one_color_or_a_plain_seed_at_any_l():
    for kw in ({"l": 2, "seed": "minimal"}, {"l": 4, "seed": "unimodular"}):
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
    [
        (["--l", "2"], "requires l == 3"),
        (["--samples", "0"], "must be positive"),
        (["--dim", "4", "--l", "4", "--seed", "unimodular"], "base dimension"),
        (["--l", "4", "--seed", "minimal"], "l = 4 is above 3"),
        (["--dim", "10", "--l", "9", "--seed", "unimodular"], "l = 9 is above 8"),
        (["--dim", "13"], "only the last step may be streamed"),
    ],
)
def test_cli_build_prints_one_line_for_an_invalid_spec(capsys, argv, match):
    from cubetri.cli import main

    assert main(["build", "cube", "--dim", "5", *argv]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("invalid spec: ")
    assert match in lines[0] and captured.out == ""


def test_spec_rejects_a_streamed_middle_step():
    for kw in ({"dim": 13}, {"dim": 8, "materialize_max_dim": 4},
               {"dim": 7, "l": 2, "seed": "minimal", "materialize_max_dim": 4}):
        with pytest.raises(ValueError, match="only the last step may be streamed"):
            PipelineSpec(**kw)
    for kw in ({"dim": 12}, {"dim": 13, "materialize_max_dim": 10},
               {"dim": 8, "materialize_max_dim": 5}, {"dim": 10}):
        PipelineSpec(**kw)


def test_cli_report_checks_its_largest_build_first(capsys):
    from time import perf_counter

    from cubetri.cli import main

    start = perf_counter()
    assert main(["report", "table", "--max-dim", "13"]) == 2
    assert perf_counter() - start < 1.0
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("invalid spec: ")
    assert "only the last step may be streamed" in lines[0] and captured.out == ""


@pytest.mark.parametrize("max_dim", ["0", "-3"])
def test_cli_report_rejects_a_max_dim_below_1(capsys, max_dim):
    from cubetri.cli import main

    assert main(["report", "table", "--max-dim", max_dim]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert lines == ["invalid spec: max-dim must be positive"]
    assert captured.out == ""


def test_unimodular_seed_builds_steps_past_l_3():
    tri, rep = build_cube_recursive(PipelineSpec(dim=5, l=4, seed="unimodular"))
    assert tri.size == math.factorial(5) and rep.ok


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "cube", "--dim", "4"],
        ["seeds", "show", "i3d1"],
        ["oracle", "min-weighted", "--config", "i2d1"],
        ["report", "table", "--max-dim", "4"],
    ],
)
def test_cli_out_in_a_missing_directory_is_an_invalid_spec(capsys, tmp_path, argv):
    from cubetri.cli import main

    for out, match in ((tmp_path / "missing" / "x.json", "no directory for --out"),
                       (tmp_path, "is a directory")):
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("invalid spec: ")
        assert match in lines[0] and captured.out == ""
        assert list(tmp_path.iterdir()) == []


# the witness both objectives print for i2d2, the first minimal one in
# enumeration order
I2D2_WITNESS_SHA256 = "395986a30885ea8735c1eead85686dda778b06e04e0cf1f26d0996b2c6cf1a79"


@pytest.mark.parametrize(
    "objective, minimum", [("weighted", "7"), ("cardinality", "10")]
)
def test_cli_oracle_minimum_over_i2d2_is_pinned(capsys, objective, minimum):
    from cubetri.cli import main

    argv = ["oracle", "min-weighted", "--config", "i2d2", "--objective", objective]
    assert main(argv) == 0
    line, _, text = capsys.readouterr().out.partition("\n")
    assert line == f"minimum {objective} over i2d2: {minimum}"
    assert text.endswith("\n")
    assert hashlib.sha256(text[:-1].encode()).hexdigest() == I2D2_WITNESS_SHA256


@pytest.mark.parametrize(
    "argv, end",
    [
        (["seeds", "show", "i3d1"], "\n"),
        (["oracle", "min-weighted", "--config", "i1d1"], "\n"),
        (["report", "table", "--max-dim", "4"], ""),
    ],
)
def test_cli_out_writes_the_text_stdout_shows(capsys, tmp_path, argv, end):
    from cubetri.cli import main

    path = tmp_path / "out.txt"
    assert main([*argv, "--out", str(path)]) == 0
    with_out = capsys.readouterr().out.splitlines()
    assert main(argv) == 0
    shown = capsys.readouterr().out
    wrote = [f"wrote {path}"]
    if argv[0] == "oracle":
        minimum, _, shown = shown.partition("\n")
        assert minimum.startswith("minimum weighted over i1d1: ")
        wrote.insert(0, minimum)
    assert with_out == wrote
    assert shown == path.read_bytes().decode() + end


@pytest.mark.parametrize(
    "argv, match",
    [
        (["--q-dim", "2", "--samples", "-1"], "must be positive"),
        (["--q-dim", "0", "--seed", "i3d1"], "q-dim must be positive"),
        (["--q-dim", "2", "--seed", "i3d1", "--samples", "0"], "must be positive"),
        # T_Q is kept whole: about 11.7 million rows at d = 11
        (["--q-dim", "11", "--seed", "i3d2", "--samples", "1"], "above 10"),
    ],
)
def test_cli_expect_prints_one_line_for_an_invalid_spec(
    monkeypatch, capsys, argv, match
):
    from cubetri import cli

    built = []
    monkeypatch.setattr(cli, "build_cube_recursive", lambda spec: built.append(spec))
    assert cli.main(["expect", *argv]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("invalid spec: ")
    assert match in lines[0] and captured.out == ""
    assert built == []


@pytest.mark.parametrize(
    "argv, match",
    [
        (["seeds", "show", "square_family(0)"], "at least one summand"),
        (["seeds", "show", "minimal_cube(4)"], "d in {1,2,3}"),
        (["seeds", "show", "unimodular_cube(9)"], "1 <= d <= 8"),
        (["seeds", "show", "nonsense"], "unknown seed 'nonsense'"),
        (["oracle", "min-weighted", "--config", "foo"], "unknown configuration"),
        (["oracle", "min-weighted", "--config", "i5"], "exceeds guard"),
        (["oracle", "min-weighted", "--config", "i0"], "dimension 0 is below 1"),
        (["seeds", "show", "square_family(65)"], "1 <= m <= 64"),
    ],
)
def test_cli_seeds_and_oracle_print_one_line_for_an_invalid_spec(capsys, argv, match):
    from cubetri.cli import main

    assert main(argv) == 2
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

    assert main(["expect", "--q-dim", "2", "--seed", "i3d1", "--samples", "4",
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

    # a segment has 2 vertices per simplex, so at most 2 colors are usable:
    # i3d2's 3 colors fall back to i3d1's 2
    assert main(["expect", "--q-dim", "1", "--seed", "i3d2", "--samples", "2",
                 "--rng-seed", "1"]) == 0
    header, row, note = capsys.readouterr().out.splitlines()
    assert header.split(",")[1] == "m"
    assert row.split(",")[:2] == ["4", "2"]
    assert note.startswith("# block seed=i3d1 ")


@pytest.mark.parametrize("command", [["build", "cube", "--dim", "5"],
                                     ["expect", "--q-dim", "2"]])
def test_cli_has_no_m_option(capsys, command):
    # the seed sets m: --m 2 is --seed i3d1
    from cubetri.cli import main

    with pytest.raises(SystemExit) as exc:
        main([*command, "--m", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --m 2" in captured.err and captured.out == ""


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
    assert main(["expect", "--q-dim", "4", "--seed", "i3d2", "--samples", "2",
                 "--rng-seed", "1"]) == 0
    header, row = capsys.readouterr().out.splitlines()[:2]
    assert header.split(",")[-1] == "expected_exact"
    exact = Fraction(row.split(",")[-1])
    assert exact > 0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_a_build_with_no_product_step_writes_its_file(tmp_path, capsys, dim):
    # dim <= l: the base is the output, written by the one writer
    from cubetri.cli import main

    out = os.fspath(tmp_path / f"t{dim}.json")
    assert main(["build", "cube", "--dim", str(dim), "--out", out]) == 0
    with open(out) as fh:
        assert fh.read() == triangulation_to_json(minimal_cube(dim))
    capsys.readouterr()
    assert main(["verify", out]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("volume census: True")
    assert lines[1].startswith("ridges: True")


def test_a_step_derives_the_seed_blocks_once(monkeypatch):
    """Three sampled colorings and the chosen one's cells take T_0's
    factor blocks from one derivation: one factor_blocks call per cell."""
    from cubetri import coloring, complexes
    from cubetri.complexes import Triangulation
    from cubetri.seeds import cayley_seed

    seed = cayley_seed("i3d2")
    fresh = Triangulation(seed.config, seed.rows)  # no blocks derived yet
    monkeypatch.setattr(pipeline, "cayley_seed", lambda name: fresh)
    calls = []
    real = complexes.factor_blocks

    def counted(s, m):
        calls.append(s)
        return real(s, m)

    monkeypatch.setattr(complexes, "factor_blocks", counted)
    # and any module that binds the name itself
    monkeypatch.setattr(coloring, "factor_blocks", counted, raising=False)
    _, rep = build_cube_recursive(PipelineSpec(dim=5, samples=3, rng_seed=1))
    (step,) = rep.steps
    assert step.seed_used == "i3d2" and len(step.sample_sizes) == 3 and rep.ok
    assert len(calls) == fresh.size == 38


def test_a_size_mismatch_fails_the_build_under_python_O():
    """The check that a step emitted product_size's count is an explicit
    raise, which ``python -O`` keeps."""
    script = textwrap.dedent("""
        from cubetri import pipeline
        real = pipeline.product_size
        pipeline.product_size = lambda *args: real(*args) + 1
        try:
            pipeline.build_cube_recursive(pipeline.PipelineSpec(dim=4))
        except AssertionError as exc:
            print("raised:", exc)
        else:
            print("built")
    """)
    src = os.fspath(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("raised: step to d=4 emitted 16 simplices"), run.stdout
