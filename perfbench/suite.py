#!/usr/bin/env python3
"""Run every workload on several seeds and report each metric's spread.

    python3 perfbench/suite.py [--runs 10] [--first-seed 1] [--trace]

Each run is its own `run.py` process, one at a time, over every workload
of BENCHMARK.json for its `run_seconds`; seeds are the outer loop, so slow
drift of the machine falls on every workload alike. For each end-to-end
metric the table gives the median of the runs, the distance between the
first and third quartile as a share of the median, and the metric's bound
from BENCHMARK.json, flagged when the spread exceeds a third of the bound.
With --trace, one traced run per workload prints the per-layer split
instead. Every run's result line is saved under perfbench/out/.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{done.stderr}")
    out = json.loads(done.stdout.strip().splitlines()[-1])
    out.update(workload=workload, seed=seed)
    return out


def spread(values) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    runs = 1 if args.trace else args.runs

    results = []
    for seed in range(args.first_seed, args.first_seed + runs):
        for w in workloads:
            results.append(run_once(w, seed, spec["run_seconds"], int(args.trace)))
            r = results[-1]
            print(f"{w:15s} seed {seed:3d} correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}", flush=True)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    path = out / f"suite_{'trace' if args.trace else 'runs'}_{stamp}.json"
    path.write_text(json.dumps(results, indent=1) + "\n")

    ok = all(r["correct"] for r in results)
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        print("\n" + "metric".ljust(26) + "".join(w.rjust(16) for w in workloads))
        for name in names:
            row = [r["metrics"][name]["value"] for r in results]
            print(name.ljust(26) + "".join(f"{v:16.4f}" for v in row))
    else:
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        print(f"\n{'workload':15s} {'metric':14s} {'median':>10s} {'IQR/med':>8s} {'bound':>6s}")
        for w in workloads:
            mine = [r for r in results if r["workload"] == w]
            shares = {r["failed"] / r["attempted"] for r in mine}
            for name, bound in bounds.items():
                med, s = spread([r["metrics"][name]["value"] for r in mine])
                flag = "" if s < bound / 3 else "  <- above a third of the bound"
                print(f"{w:15s} {name:14s} {med:10.4f} {s:8.4f} {bound:6.2f}{flag}")
            print(f"{w:15s} failed share   {sorted(shares)}")
    print(f"\nall correct: {ok}; results in {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
