"""cubetri benchmark: one workload per invocation.

    python3 perfbench/run.py --workload build-d8 --seed 1 --seconds 20 --trace 0

Untraced (``--trace 0``), one child process imports ``cubetri`` from
``src/``, builds and verifies the seeds and makes the workload's inputs
(set-up). It then times operations one after another for ``--seconds``
(at least three), each in a process forked from the set-up one, so that no
operation sees the caches of an earlier one. Each operation's outputs are
checked after its timing. Two more children only set up. Reported end to
end:

* ``wall_s``: median over the run's operations of one operation's wall time;
* ``setup_s``: median over the three children of the time before the first
  operation could start;
* ``peak_rss_mb``: median over the operations of the operation process's
  ``ru_maxrss``.

Traced (``--trace 1``), one child times untraced operations for half of
``--seconds`` and a second one wraps every ``cubetri`` layer in
``spans.LAYERS`` before its set-up and times traced operations for the
other half. Each per-layer metric is the median over the traced
operations, and ``trace.overhead_s`` is the difference of the two median
wall times. The first traced operation's spans go to
``.perfbench-out/traces/<run id>.tsv``.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (operations and negative controls), and
``metrics``. The exit code is 0 only when every gate and control passed.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import uuid  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUPS = 3  # set-ups measured per run: the timing child's and two more
MIN_OPS = 3
# Keep numeric libraries to one thread: each workload is single threaded.
ONE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def _import_cubetri():
    sys.path.insert(0, str(SRC))
    import cubetri

    if Path(cubetri.__file__).resolve().parent != SRC / "cubetri":
        sys.exit(f"perfbench: imported cubetri from {cubetri.__file__}, not {SRC}")


# -- child processes ---------------------------------------------------------


def _one_op(wl, state, tracer, write_trace) -> dict:
    with tracer.span(tracer.OP) if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        op = wl.op(state)
        wall_s = time.perf_counter() - t0
    result = {"wall_s": wall_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.metrics(op.counts)
        if write_trace:
            (OUT / "traces").mkdir(parents=True, exist_ok=True)
            trace_path = OUT / "traces" / f"{tracer.run_id}.tsv"
            tracer.write(trace_path)
            result["trace_file"] = str(trace_path.relative_to(ROOT))
    result["gate_failures"] = wl.gates(state, op)
    return result


def child(args) -> dict:
    """One set-up in this process, then unless ``--child setup`` operations
    in forked copies of it for ``--seconds``. Returns what the parent
    aggregates."""
    _import_cubetri()
    from workloads import WORKLOADS, in_fork, seeds_setup

    wl = WORKLOADS[args.workload]
    tracer = None
    if args.child == "traced":
        from spans import Tracer

        tracer = Tracer(f"{args.workload}-seed{args.seed}-{uuid.uuid4().hex[:12]}")
        tracer.install()
    with tracer.span(tracer.SETUP) if tracer else contextlib.nullcontext():
        seeds_setup()
        state = wl.setup(args.seed, args.work)
    result = {"setup_s": time.perf_counter() - T_START}
    if args.child == "setup":
        return result
    if args.controls:
        result["controls"] = in_fork(lambda: {"checks": wl.controls(state)})
    ops, op_s = [], []
    t0 = time.monotonic()
    while True:
        started = time.monotonic()
        res = in_fork(lambda: _one_op(wl, state, tracer, write_trace=not ops))
        op_s.append(time.monotonic() - started)
        ops.append(res)
        if "error" in res:
            break
        # start another operation only if it should end within --seconds
        if len(ops) >= MIN_OPS and time.monotonic() - t0 + statistics.median(op_s) > args.seconds:
            break
    result["ops"] = ops
    return result


# -- parent ------------------------------------------------------------------


def _spawn(args, kind, work, deadline, seconds=0.0, controls=False) -> dict:
    work.mkdir()
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(seconds), "--child", kind,
        "--work", str(work),
    ]
    if controls:
        cmd.append("--controls")
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env={**os.environ, **ONE_THREAD}, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and its forked operations
        proc.communicate()
        return {"error": f"{kind} child exceeded the {timeout:.0f} s left"}
    if proc.returncode != 0 or not out.strip():
        return {"error": f"{kind} child exited {proc.returncode}: {err[-2000:]}"}
    return json.loads(out.strip().splitlines()[-1])


def parent(args) -> int:
    if not (SRC / "cubetri" / "__init__.py").is_file():
        print(f"perfbench: no cubetri sources under {SRC}", file=sys.stderr)
        return 2
    _import_cubetri()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    deadline = time.monotonic() + wl.timeout_s
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    work.mkdir()
    try:
        return _run(args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _describe(tag, walls):
    q1, med, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    print(f"{tag}: {len(walls)} operations, wall min {min(walls):.4f} q1 {q1:.4f} "
          f"median {med:.4f} q3 {q3:.4f} max {max(walls):.4f} s")


def _run(args, work, deadline) -> int:
    attempted = failed = 0
    errors: list[str] = []

    def tally(res):
        """Count a child's operations and negative controls; return the
        operations that ran to the end."""
        nonlocal attempted, failed
        done = []
        if "error" in res:
            attempted += 1
            failed += 1
            errors.append(res["error"])
        checks = res.get("controls", {})
        if "error" in checks:
            attempted += 1
            failed += 1
            errors.append(f"negative controls: {checks['error']}")
        for name, ok in checks.get("checks", []):
            attempted += 1
            if not ok:
                failed += 1
                errors.append(f"negative control {name} was not rejected")
        for op in res.get("ops", []):
            attempted += 1
            bad = [op["error"]] if "error" in op else op["gate_failures"]
            failed += bool(bad)
            errors.extend(bad)
            if "error" not in op:
                done.append(op)
        return done

    metrics = {}
    if args.trace:
        half = args.seconds / 2
        plain = tally(_spawn(args, "ops", work / "plain", deadline, half, controls=True))
        traced = tally(_spawn(args, "traced", work / "traced", deadline, half))
        if plain and traced:
            _describe("untraced", [r["wall_s"] for r in plain])
            _describe("traced", [r["wall_s"] for r in traced])
            for name, first in traced[0]["layers"].items():
                value = statistics.median(r["layers"][name]["value"] for r in traced)
                metrics[name] = {"value": value, "unit": first["unit"]}
            over = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r in plain))
            metrics["trace.overhead_s"] = {"value": over, "unit": "s"}
            print(f"spans written to {traced[0]['trace_file']}")
    else:
        res = _spawn(args, "ops", work / "ops", deadline, args.seconds, controls=True)
        ops = tally(res)
        setups = [res["setup_s"]] if "setup_s" in res else []
        while ops and len(setups) < SETUPS:
            extra = _spawn(args, "setup", work / f"setup{len(setups)}", deadline)
            if "error" in extra:
                tally(extra)
                break
            setups.append(extra["setup_s"])
        if ops and len(setups) == SETUPS:
            walls = [r["wall_s"] for r in ops]
            _describe("operations", walls)
            print("set-ups: " + ", ".join(f"{s:.4f}" for s in setups) + " s")
            metrics = {
                "wall_s": {"value": statistics.median(walls), "unit": "s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {
                    "value": statistics.median(r["peak_rss_mb"] for r in ops),
                    "unit": "MB",
                },
            }
    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("setup", "ops", "traced"), help=argparse.SUPPRESS)
    ap.add_argument("--work", help=argparse.SUPPRESS)
    ap.add_argument("--controls", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(child(args)))
        return 0
    return parent(args)


if __name__ == "__main__":
    sys.exit(main())
