"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workloads certify-d5 oracle-small --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workloads build-d8 --seeds 1 1 --trace 1

Runs ``run.py`` once per (workload, seed), one run at a time, and prints
for every metric its median and the distance between the first and third
quartile (``statistics.quantiles(n=4)``) as a share of the median. With
``--trace 1`` it also reports whether every count metric (unit ``count``
or ``B``) read the same in every run, which holds when the seeds are equal.
Writes all values to ``--out`` (default ``.perfbench-out/spread.json``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(HERE.parent / ".perfbench-out" / "spread.json"))
    args = ap.parse_args()
    if args.seconds is None:
        with open(HERE.parent / "BENCHMARK.json") as fh:
            args.seconds = json.load(fh)["run_seconds"]

    summary = {}
    ok = True
    for wl in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            took = time.monotonic() - t0
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
            res["run_s"] = took
            runs.append(res)
            ok = ok and proc.returncode == 0 and res["correct"]
            print(f"{wl} seed {seed}: exit {proc.returncode}, correct {res['correct']}, "
                  f"{res.get('attempted')} attempted, {res.get('failed')} failed, "
                  f"run {took:.1f} s", flush=True)
            if proc.returncode != 0:
                print(proc.stderr[-2000:], file=sys.stderr)
        rows = {}
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
            unit = runs[0]["metrics"][name]["unit"]
            rows[name] = {"unit": unit, "values": vals, "median": med,
                          "q1": q1, "q3": q3,
                          "iqr_share": (q3 - q1) / med if med else 0.0,
                          "exact_repeat": len(set(vals)) == 1}
            flag = ""
            if args.trace and unit in ("count", "B") and not rows[name]["exact_repeat"]:
                flag = "  COUNT DIFFERS"
            print(f"  {name:48s} median {med:<14.6g} {unit:6s} "
                  f"iqr/median {rows[name]['iqr_share']:.4f}{flag}")
        summary[wl] = {"seeds": args.seeds, "run_s": [r["run_s"] for r in runs],
                       "metrics": rows}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
