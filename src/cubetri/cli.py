"""Command-line surface.

    cubetri build cube --dim D [--l L] [--m M] [--seed NAME]
                       [--rng-seed N] [--samples S] [--out PATH]
    cubetri verify PATH [--face-to-face]
    cubetri report table --max-dim D [--out CSV]
    cubetri expect --q-dim N --m M --samples S --rng-seed N
    cubetri seeds show NAME [--out PATH]
    cubetri oracle min-weighted --config NAME [--objective weighted|cardinality]

``verify`` certifies a file by the volume census and the ridge check,
both linear in its size; ``--face-to-face`` runs the quadratic pairwise
dissection and face-to-face scans instead. Either way a file whose
``dim`` or simplices the reader rejects (an entry that is not an integer
index of a point, or simplices of different sizes) prints one
``invalid file: ...`` line. ``expect`` prints the exact expected size
over uniform colorings next to sampled sizes.

Exit code 0 iff every requested validation passed; 2 for a spec that
``build`` rejects, with one ``invalid spec: ...`` line.
"""

from __future__ import annotations

import argparse
import re
import sys

from .cayley import mixed_to_json
from .coloring import exact_expected_size, monte_carlo_size, size_bound
from .complexes import (
    CENSUS_KINDS,
    duplicate_simplices,
    ridge_report,
    triangulation_from_json,
    triangulation_to_json,
    validate_dissection,
    validate_face_to_face,
    weighted_size,
)
from .geometry import cube_config, product_config, simplex_config
from .oracle import SearchProblem, min_weighted_size
from .pipeline import (
    SEEDS,
    PipelineSpec,
    _pick_seed,
    build_cube_recursive,
    report_table,
)
from .seeds import (
    minimal_cube,
    seed_i3d1,
    seed_i3d2,
    square_family,
    unimodular_cube,
)


def _cmd_build(args) -> int:
    try:
        spec = PipelineSpec(dim=args.dim, l=args.l, m=args.m, seed=args.seed,
                            rng_seed=args.rng_seed, samples=args.samples, out=args.out)
    except ValueError as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return 2
    tri, report = build_cube_recursive(spec)
    for st in report.steps:
        f2f = "-" if st.face_to_face is None else str(st.face_to_face)
        print(
            f"step {st.dim_from}->{st.dim_to}: seed={st.seed_used} m={st.m_used} "
            f"size={st.size} bound={float(st.bound):.2f} bound_ok={st.bound_ok} "
            f"volume_ok={st.volume_ok} face_to_face={f2f} "
            f"dissection={st.dissection_certified}"
        )
    print(f"final size for dimension {spec.dim}: {report.sizes[spec.dim]}")
    if args.out:
        print(f"wrote {args.out}")
    return 0 if report.ok else 1


def _cmd_verify(args) -> int:
    with open(args.path) as fh:
        text = fh.read()
    try:
        tri = triangulation_from_json(text)
    except ValueError as exc:
        print(f"invalid file: {exc}")
        return 1
    if args.face_to_face:
        # A passing face-to-face scan certifies the dissection too (same
        # census, no violations), so the interior scan runs only on failure.
        f2f = validate_face_to_face(tri)
        report = f2f if f2f.is_face_to_face else validate_dissection(tri)
        print(
            f"dissection: {report.is_dissection} "
            f"(volume {report.volume_total}, {len(report.violations)} violations)"
        )
        print(f"face-to-face: {f2f.is_face_to_face} ({len(f2f.violations)} violations)")
        ok = f2f.is_face_to_face
        shown = list(report.violations)
    else:
        # The census's violations lead the ridge report's, so one census
        # serves both lines.
        ridges = ridge_report(tri)
        shown = [v for v in ridges.violations if v.kind in CENSUS_KINDS]
        shown += duplicate_simplices(tri)
        ok = not shown
        print(
            f"volume census: {ok} "
            f"(volume {ridges.volume_total}, {len(shown)} violations)"
        )
        print(f"ridges: {ridges.is_face_to_face} ({len(ridges.violations)} violations)")
        ok = ok and ridges.is_face_to_face
        shown += [v for v in ridges.violations if v.kind not in CENSUS_KINDS]
    for v in shown[:10]:
        print(f"  {v}")
    return 0 if ok else 1


def _cmd_report(args) -> int:
    csv_text = report_table(args.max_dim)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(csv_text)
    return 0


def _cmd_expect(args) -> int:
    t_q = (
        minimal_cube(args.q_dim)
        if args.q_dim <= 3
        else build_cube_recursive(
            PipelineSpec(dim=args.q_dim, materialize_max_dim=args.q_dim)
        )[0]
    )
    n = args.q_dim + 1
    spec = PipelineSpec(dim=args.q_dim + 3, m=args.m)
    seed_name, m, t0 = _pick_seed(spec, n)  # clamps m as build does
    bound = size_bound(t_q.size, weighted_size(t0), n, m, spec.l)
    exact = exact_expected_size(t_q, t0, m)
    stats = monte_carlo_size(t_q, t0, m, args.samples, args.rng_seed)
    print("d,m,strategy,seed,size,bound,expected_exact")
    print(
        f"{spec.dim},{m},random,{args.rng_seed},{stats.minimum},"
        f"{float(bound):.3f},{exact}"
    )
    print(
        f"# block seed={seed_name} samples={stats.samples} "
        f"mean={float(stats.mean):.3f} min={stats.minimum} max={stats.maximum}"
    )
    return 0


def _cmd_seeds_show(args) -> int:
    name = args.name
    msq = re.fullmatch(r"square_family\((\d+)\)", name)
    mmin = re.fullmatch(r"minimal_cube\((\d+)\)", name)
    muni = re.fullmatch(r"unimodular_cube\((\d+)\)", name)
    if name == "i3d1":
        text = mixed_to_json(seed_i3d1())
    elif name == "i3d2":
        text = mixed_to_json(seed_i3d2())
    elif msq:
        text = mixed_to_json(square_family(int(msq.group(1))))
    elif mmin:
        text = triangulation_to_json(minimal_cube(int(mmin.group(1))))
    elif muni:
        text = triangulation_to_json(unimodular_cube(int(muni.group(1))))
    else:
        print(f"unknown seed {name!r}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _parse_config_name(name: str):
    m = re.fullmatch(r"[iI](\d+)(?:[dD](\d+))?", name)
    if not m:
        raise ValueError(f"unknown configuration name {name!r} (try i2d1, i3)")
    l = int(m.group(1))
    if m.group(2) is None:
        return cube_config(l)
    return product_config(cube_config(l), simplex_config(int(m.group(2))))


def _cmd_oracle(args) -> int:
    cfg = _parse_config_name(args.config)
    problem = SearchProblem(cfg, objective=args.objective)
    value, witness = min_weighted_size(problem)
    print(f"minimum {args.objective} over {args.config}: {value}")
    text = triangulation_to_json(witness)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="cubetri", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_build = sub.add_parser("build", help="build triangulations")
    sub_build = p_build.add_subparsers(dest="what", required=True)
    p_cube = sub_build.add_parser("cube", help="triangulate a cube recursively")
    p_cube.add_argument("--dim", type=int, required=True)
    p_cube.add_argument("--l", type=int, default=3)
    p_cube.add_argument("--m", type=int, default=3)
    p_cube.add_argument("--seed", choices=SEEDS, default="i3d2")
    p_cube.add_argument("--rng-seed", type=int, default=0)
    p_cube.add_argument("--samples", type=int, default=1)
    p_cube.add_argument("--out")
    p_cube.set_defaults(func=_cmd_build)

    p_verify = sub.add_parser("verify", help="validate a triangulation file")
    p_verify.add_argument("path")
    p_verify.add_argument(
        "--face-to-face",
        action="store_true",
        help="run the quadratic pairwise dissection and face-to-face scans "
        "instead of the volume census and the ridge check",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_report = sub.add_parser("report", help="reporting tables")
    sub_report = p_report.add_subparsers(dest="what", required=True)
    p_table = sub_report.add_parser("table", help="per-dimension CSV table")
    p_table.add_argument("--max-dim", type=int, required=True)
    p_table.add_argument("--out")
    p_table.set_defaults(func=_cmd_report)

    p_expect = sub.add_parser("expect", help="expected-size statistics")
    p_expect.add_argument("--q-dim", type=int, required=True)
    p_expect.add_argument("--m", type=int, required=True)
    p_expect.add_argument("--samples", type=int, default=16)
    p_expect.add_argument("--rng-seed", type=int, default=0)
    p_expect.set_defaults(func=_cmd_expect)

    p_seeds = sub.add_parser("seeds", help="seed catalog")
    sub_seeds = p_seeds.add_subparsers(dest="what", required=True)
    p_show = sub_seeds.add_parser("show", help="dump a catalog object as JSON")
    p_show.add_argument("name")
    p_show.add_argument("--out")
    p_show.set_defaults(func=_cmd_seeds_show)

    p_oracle = sub.add_parser("oracle", help="exhaustive minimum search")
    sub_oracle = p_oracle.add_subparsers(dest="what", required=True)
    p_min = sub_oracle.add_parser("min-weighted", help="minimum weighted size")
    p_min.add_argument("--config", required=True)
    p_min.add_argument(
        "--objective", choices=["weighted", "cardinality"], default="weighted"
    )
    p_min.add_argument("--out")
    p_min.set_defaults(func=_cmd_oracle)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
