"""Command-line surface.

    cubetri build cube --dim D [--l L] [--seed NAME]
                       [--rng-seed N] [--samples S] [--out PATH]
    cubetri verify PATH
    cubetri report table --max-dim D [--out CSV]
    cubetri expect --q-dim N [--seed NAME] [--samples S] [--rng-seed N]
    cubetri seeds show NAME [--out PATH]
    cubetri oracle min-weighted --config NAME [--objective weighted|cardinality]
                                [--out PATH]

``verify`` certifies a file by the volume census and the ridge check,
both linear in its size; a file in the writer's layout is read block by
block, never whole. A file that cannot be read or decoded, or whose
``dim`` or simplices the reader rejects (an entry that is not an integer
index of a point, or simplices of different sizes), prints one
``invalid file: ...`` line. ``expect`` prints the exact expected size over
uniform colorings next to sampled sizes, for ``--q-dim`` 1..10.

``--seed`` sets the colors m of a step: 3 for i3d2 (the paper's k = 3,
m = 2 triangulation of I^3 x simplex(2)), 2 for i3d1 and 1 for minimal
and unimodular, clamped to the vertex count of a simplex of the cube the
step refines.

Exit code 0 iff every requested validation passed: 1 when a build fails
a check (``build`` after its step lines; ``report table`` and ``expect``
with one ``verification failed at d=D`` line and no table) or a seed
fails its own (one ``verification failed at seed NAME: ...`` line, from
``seeds show`` too); 2 for a spec that ``build``, ``report table``,
``expect``, ``seeds show`` or ``oracle`` rejects, with one ``invalid spec: ...`` line before any work. Such specs
include an ``--out`` that is a directory or lies in a missing one, and a
build (for ``report table``, its largest) whose middle step would be
streamed.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import replace

from .cayley import mixed_to_json
from .coloring import exact_expected_size, monte_carlo_size, size_bound
from .complexes import (
    _census,
    duplicate_simplices,
    ridge_violations,
    triangulation_from_json,
    triangulation_to_json,
    weighted_size,
)
from .geometry import cube_config, product_config, simplex_config
from .oracle import SearchProblem, min_weighted_size
from .pipeline import (
    SEEDS,
    PipelineSpec,
    VerificationFailed,
    _pick_seed,
    build_cube_recursive,
    report_table,
)
from .seeds import _SEEDS, _seed, minimal_cube, square_family, unimodular_cube


def _check_out(path: str | None) -> None:
    """ValueError unless ``path`` is unset or a file in an existing directory."""
    if path and os.path.isdir(path):
        raise ValueError(f"--out {path!r} is a directory")
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"no directory for --out {path!r}")


def _emit(text: str, out: str | None, end: str = "\n") -> None:
    """Write ``text`` to the file ``out``, or to stdout followed by ``end``."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text + end)


def _build_spec(args) -> PipelineSpec:
    return PipelineSpec(dim=args.dim, l=args.l, seed=args.seed,
                        rng_seed=args.rng_seed, samples=args.samples, out=args.out)


def _cmd_build(args, spec: PipelineSpec) -> int:
    tri, report = build_cube_recursive(spec)
    for st in report.steps:
        f2f = "-" if st.face_to_face is None else str(st.face_to_face)
        print(
            f"step {st.dim_from}->{st.dim_to}: seed={st.seed_used} m={st.m_used} "
            f"size={st.size} bound={float(st.bound):.2f} bound_ok={st.bound_ok} "
            f"volume_ok={st.volume_ok} face_to_face={f2f} "
            f"dissection={st.dissection_certified}"
        )
    if spec.dim not in report.sizes:
        print(f"stopped at the failed step to d={report.steps[-1].dim_to}")
        return 1
    print(f"final size for dimension {spec.dim}: {report.sizes[spec.dim]}")
    if args.out:
        print(f"wrote {args.out}")
    return 0 if report.ok else 1


def _cmd_verify(args, path: str) -> int:
    try:
        with open(path) as fh:
            tri = triangulation_from_json(fh)
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        print(f"invalid file: {exc}")
        return 1
    # One census feeds both lines; the ridge line counts its violations too.
    full, vols, total, census = _census(tri)
    duplicates = duplicate_simplices(tri)
    ridges = ridge_violations(tri.config, full, vols)
    census_ok = not census and not duplicates
    ridges_ok = not census and not ridges
    print(f"volume census: {census_ok} "
          f"(volume {total}, {len(census) + len(duplicates)} violations)")
    print(f"ridges: {ridges_ok} ({len(census) + len(ridges)} violations)")
    for v in (census + duplicates + ridges)[:10]:
        print(f"  {v}")
    return 0 if census_ok and ridges_ok else 1


def _report_dim(args) -> int:
    """``--max-dim``, once it is positive and the largest build of the
    table passes as a spec."""
    if args.max_dim < 1:
        raise ValueError("max-dim must be positive")
    if args.max_dim >= 4:
        PipelineSpec(dim=args.max_dim)
    return args.max_dim


def _cmd_report(args, max_dim: int) -> int:
    _emit(report_table(max_dim), args.out, end="")
    return 0


def _expect_spec(args) -> PipelineSpec:
    """The build of T_Q, kept whole (about 11.7 million rows at d = 11, so
    d <= 10). The step on it takes ``--seed`` and samples its colorings."""
    if args.q_dim < 1:
        raise ValueError("q-dim must be positive")
    if args.q_dim > 10:
        raise ValueError(f"q-dim {args.q_dim} is above 10, the largest T_Q kept")
    if args.samples < 1:
        raise ValueError("samples must be positive")
    return PipelineSpec(dim=args.q_dim, materialize_max_dim=args.q_dim)


def _cmd_expect(args, spec: PipelineSpec) -> int:
    t_q, report = build_cube_recursive(spec)
    report.check()
    n = args.q_dim + 1
    seed_name, m, t0 = _pick_seed(replace(spec, seed=args.seed), n)  # as build does
    bound = size_bound(t_q.size, weighted_size(t0), n, m, spec.l)
    exact = exact_expected_size(t_q, t0, m)
    stats = monte_carlo_size(t_q, t0, m, args.samples, args.rng_seed)
    print("d,m,strategy,seed,size,bound,expected_exact")
    print(
        f"{spec.dim + spec.l},{m},random,{args.rng_seed},{stats.minimum},"
        f"{float(bound):.3f},{exact}"
    )
    print(
        f"# block seed={seed_name} samples={stats.samples} "
        f"mean={float(stats.mean):.3f} min={stats.minimum} max={stats.maximum}"
    )
    return 0


def _seed_text(name: str) -> str:
    """The JSON of a catalog object; ValueError for a name or size the
    catalog does not hold."""
    msq = re.fullmatch(r"square_family\((\d+)\)", name)
    mmin = re.fullmatch(r"minimal_cube\((\d+)\)", name)
    muni = re.fullmatch(r"unimodular_cube\((\d+)\)", name)
    if name in _SEEDS:
        return mixed_to_json(_seed(name)[0])
    if msq:
        return mixed_to_json(square_family(int(msq.group(1))))
    if mmin:
        return triangulation_to_json(minimal_cube(int(mmin.group(1))))
    if muni:
        return triangulation_to_json(unimodular_cube(int(muni.group(1))))
    raise ValueError(f"unknown seed {name!r}")


def _cmd_seeds_show(args, text: str) -> int:
    _emit(text, args.out)
    return 0


def _search_problem(args) -> SearchProblem:
    m = re.fullmatch(r"[iI](\d+)(?:[dD](\d+))?", args.config)
    if not m:
        raise ValueError(f"unknown configuration name {args.config!r} (try i2d1, i3)")
    cfg = cube_config(int(m.group(1)))
    if m.group(2) is not None:
        cfg = product_config(cfg, simplex_config(int(m.group(2))))
    return SearchProblem(cfg, args.objective)


def _cmd_oracle(args, problem: SearchProblem) -> int:
    value, witness = min_weighted_size(problem)
    print(f"minimum {args.objective} over {args.config}: {value}")
    _emit(triangulation_to_json(witness), args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="cubetri", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_build = sub.add_parser("build", help="build triangulations")
    sub_build = p_build.add_subparsers(dest="what", required=True)
    p_cube = sub_build.add_parser("cube", help="triangulate a cube recursively")
    p_cube.add_argument("--dim", type=int, required=True)
    p_cube.add_argument("--l", type=int, default=3)
    p_cube.add_argument("--seed", choices=SEEDS, default="i3d2")
    p_cube.add_argument("--rng-seed", type=int, default=0)
    p_cube.add_argument("--samples", type=int, default=1)
    p_cube.add_argument("--out")
    p_cube.set_defaults(func=_cmd_build, check=_build_spec)

    p_verify = sub.add_parser("verify", help="validate a triangulation file")
    p_verify.add_argument("path")
    p_verify.set_defaults(func=_cmd_verify, check=lambda a: a.path)

    p_report = sub.add_parser("report", help="reporting tables")
    sub_report = p_report.add_subparsers(dest="what", required=True)
    p_table = sub_report.add_parser("table", help="per-dimension CSV table")
    p_table.add_argument("--max-dim", type=int, required=True)
    p_table.add_argument("--out")
    p_table.set_defaults(func=_cmd_report, check=_report_dim)

    p_expect = sub.add_parser("expect", help="expected-size statistics")
    p_expect.add_argument("--q-dim", type=int, required=True)
    p_expect.add_argument("--seed", choices=SEEDS, default="i3d2")
    p_expect.add_argument("--samples", type=int, default=16)
    p_expect.add_argument("--rng-seed", type=int, default=0)
    p_expect.set_defaults(func=_cmd_expect, check=_expect_spec)

    p_seeds = sub.add_parser("seeds", help="seed catalog")
    sub_seeds = p_seeds.add_subparsers(dest="what", required=True)
    p_show = sub_seeds.add_parser("show", help="dump a catalog object as JSON")
    p_show.add_argument("name")
    p_show.add_argument("--out")
    p_show.set_defaults(func=_cmd_seeds_show, check=lambda a: _seed_text(a.name))

    p_oracle = sub.add_parser("oracle", help="exhaustive minimum search")
    sub_oracle = p_oracle.add_subparsers(dest="what", required=True)
    p_min = sub_oracle.add_parser("min-weighted", help="minimum weighted size")
    p_min.add_argument("--config", required=True)
    p_min.add_argument(
        "--objective", choices=["weighted", "cardinality"], default="weighted"
    )
    p_min.add_argument("--out")
    p_min.set_defaults(func=_cmd_oracle, check=_search_problem)

    args = parser.parse_args(argv)
    try:
        # Each spec is checked once, before any work; the command takes the result.
        try:
            _check_out(getattr(args, "out", None))
            checked = args.check(args)
        except ValueError as exc:
            print(f"invalid spec: {exc}", file=sys.stderr)
            return 2
        return args.func(args, checked)
    except VerificationFailed as exc:  # a failed step or seed, in any phase
        print(exc)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
