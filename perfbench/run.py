#!/usr/bin/env python3
"""Run one capmatch benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from `src/`. The
workload's inputs are built from the seed, then whole rounds over its fixed
market list run until S seconds have passed. The outputs of every round
must agree, and the first round's outputs are checked by `checks.py` after
the timed phase. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` (markets) and `metrics`. A market whose
call raises counts as failed and gets no output to check; `correct` speaks
of the markets that did not fail.

--trace 0 reports the end-to-end metrics. setup_s is the median of fresh
processes, each timed from its start until its inputs are built: at least
SETUP_MIN of them, and more, up to SETUP_MAX, while they have taken less
than SETUP_BUDGET_S in all. A cheap set-up is sampled more often, so its
median is steadier; an expensive one does not lengthen the run much.
--trace 1 alternates untraced and traced rounds and reports the per-layer
split of a traced round (see spans.py), its wall time, the part of it no
layer covers, and the tracing overhead two ways: measured, as the median
over pairs of a traced round's wall time against the untraced round just
before it, and modelled, as the spans of a round times the measured extra
cost of one wrapped call, against an untraced round. It also
writes the first traced round's spans to perfbench/out/.
"""

import os

# one thread per workload process, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 5.0


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, print 'ready' and exit")
    return p.parse_args(argv)


def _import_program():
    """Import capmatch from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "capmatch" / "__init__.py").is_file():
        sys.exit(f"perfbench: no capmatch sources under {src}")
    sys.path.insert(0, str(src))
    import capmatch

    if Path(capmatch.__file__).resolve().parent != (src / "capmatch").resolve():
        sys.exit(f"perfbench: imported capmatch from {capmatch.__file__}")


def _setup_seconds(args) -> float:
    """Median wall time of fresh processes from start to built inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    times: list[float] = []
    while len(times) < SETUP_MIN or (
        len(times) < SETUP_MAX and sum(times) < SETUP_BUDGET_S
    ):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as p:
            line = p.stdout.readline()
            elapsed = perf_counter() - t0
            p.stdout.read()
        if p.returncode != 0 or line.strip() != "ready":
            sys.exit(f"perfbench: set-up process failed ({p.returncode})")
        times.append(elapsed)
    return statistics.median(times)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _timed(inputs, run_round, seconds):
    """Whole rounds until `seconds` pass; returns (first round, rounds,
    per-market latencies of every round, failed markets, elapsed,
    identical), where identical says every round's outputs equal the
    first's."""
    first = None
    latencies: list[list[float]] = []
    failed = 0
    identical = True
    t0 = perf_counter()
    while True:
        rnd = run_round(inputs)
        latencies.append(rnd.latencies)
        failed += rnd.failed
        if first is None:
            first = rnd
        else:
            identical &= rnd.outputs == first.outputs
        if perf_counter() - t0 >= seconds:
            elapsed = perf_counter() - t0
            return first, len(latencies), latencies, failed, elapsed, identical


def _traced(args, inputs, run_round):
    """Alternate untraced and traced rounds; per-layer metrics per round."""
    from spans import COUNTS, LAYER_TIMES, Tracer, traced, wrapper_cost

    tracer = Tracer()
    plain, spans_wall = [], []
    first = None
    failed = 0
    identical = True
    t0 = perf_counter()
    while True:
        t = perf_counter()
        rnd = run_round(inputs)
        plain.append(perf_counter() - t)
        t = perf_counter()
        with traced(tracer):
            rnd_traced = run_round(inputs)
        spans_wall.append(perf_counter() - t)
        failed += rnd.failed + rnd_traced.failed
        if first is None:
            first = rnd
            _write_spans(args, tracer.spans, t)
        identical &= rnd.outputs == first.outputs == rnd_traced.outputs
        if perf_counter() - t0 >= args.seconds:
            break
    n = len(spans_wall)
    selfs = tracer.self_times()
    metrics = {
        metric: _metric(selfs.get(name, 0.0) / n, "s")
        for name, metric in LAYER_TIMES.items()
    }
    metrics.update({c: _metric(tracer.counts[c] / n, "count") for c in COUNTS})
    wall = sum(spans_wall) / n
    metrics["trace.wall.s"] = _metric(wall, "s")
    metrics["trace.unattributed.s"] = _metric(wall - sum(selfs.values()) / n, "s")
    # each traced round against the untraced round just before it, so the
    # machine's slow drift cancels within a pair
    overhead = statistics.median(t / p for p, t in zip(plain, spans_wall)) - 1
    metrics["trace.overhead_pct"] = _metric(100 * overhead, "%")
    # the wrappers' own cost: spans per round times the measured extra cost
    # of one wrapped call, against an untraced round
    cost = len(tracer.spans) / n * wrapper_cost()
    metrics["trace.wrapper_pct"] = _metric(100 * cost / statistics.median(plain), "%")
    return first, 2 * n, failed, metrics, identical


def _write_spans(args, spans, t0):
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    doc = [
        {"name": name, "start": start - t0, "end": end - t0, "parent": parent}
        for name, start, end, parent in spans
    ]
    path = out / f"trace_{args.workload}_seed{args.seed}.json"
    path.write_text(json.dumps(doc) + "\n")


def _check(inputs, outputs, seed) -> list[str]:
    import checks
    from capmatch.experiments import market_seed

    bad = []
    if inputs.configs:
        for cfg, results, *_ in filter(None, outputs):
            bad += checks.check_rows(cfg, results)
            bad += checks.recheck_cells(cfg, results, seed)
    else:
        for i, (m, result) in enumerate(zip(inputs.markets, outputs)):
            if result is None:
                continue
            bad += checks.check_census(
                m, result, market_seed(seed, i), f"census market {i}"
            )
        bad += checks.check_fixtures()
    return bad


def main(argv=None) -> int:
    args = _args(argv)
    _import_program()
    from workloads import WORKLOADS, build, run_round

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    if args.setup_only:
        build(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    setup_s = None if args.trace else _setup_seconds(args)
    inputs = build(args.workload, args.seed)
    if args.trace:
        first, rounds, failed, metrics, identical = _traced(args, inputs, run_round)
    else:
        first, rounds, latencies, failed, elapsed, identical = _timed(
            inputs, run_round, args.seconds
        )
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        done = rounds * inputs.markets_per_round - failed
        # each market's mean over the rounds, then the median over the
        # list: the mean evens out the machine's drift within the run
        means = [statistics.mean(t) for t in zip(*latencies)]
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "markets_per_s": _metric(done / elapsed, "1/s"),
            "market_p50_ms": _metric(
                1000 * statistics.median(means) if means else 0.0, "ms"
            ),
            "peak_rss_mb": _metric(peak_kib / 1024, "MB"),
        }
    if first.failed:
        print(f"perfbench: {first.failed} of {inputs.markets_per_round} markets "
              f"failed in each round; first error: {first.error}", file=sys.stderr)
    problems = [] if identical else ["rounds of the same inputs disagree"]
    problems += _check(inputs, first.outputs, args.seed)
    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": rounds * inputs.markets_per_round,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
