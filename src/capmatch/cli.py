"""Command line entry points.

  capmatch generate  --config cfg.json --out DIR [--seed N]
  capmatch run       --config cfg.json --out DIR [--mechanisms a,b] [--seed N] [--jobs N]
  capmatch table     --results DIR/results.json [--out DIR]
  capmatch oracle    (--fixture NAME | --market PATH) [--verbose-witnesses]
  capmatch fixtures

`generate` materializes every replica market plus a manifest. `run` derives
the same markets from the config (no market files needed) and writes
results.json. `table` aggregates results into table.csv / table.txt. All
outputs are canonical JSON or fixed-layout text, so identical configs and
seeds reproduce identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .experiments import (
    ExperimentConfig,
    aggregate,
    replica_market,
    results_from_json,
    results_to_json,
    run_experiment,
    table_csv,
    table_text,
)
from .fixtures import (
    FIXTURE_EXPECTATIONS,
    FIXTURES,
    fixture_names,
    load_fixture,
)
from .market import dumps_market, load_market, validate_market
from .oracle import census


def _load_config(path: str, seed_override) -> ExperimentConfig:
    with open(path) as fh:
        config = ExperimentConfig.from_dict(json.load(fh))
    if seed_override is not None:
        config = dataclasses.replace(config, master_seed=seed_override)
    return config


def cmd_generate(args) -> int:
    config = _load_config(args.config, args.seed)
    out = Path(args.out)

    def write(name: str, text: str) -> None:
        # made at the first write: a config that makes no market leaves none
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text)

    seeds = []
    for i in range(config.replicas):
        market, seed = replica_market(config, i)
        seeds.append(seed)
        write(f"market_{i:04d}.json", dumps_market(market))
    manifest = {
        "digest": config.digest(),
        "config": config.to_dict(),
        "market_seeds": seeds,
    }
    write("manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {config.replicas} markets and manifest.json to {out}")
    return 0


def cmd_run(args) -> int:
    config = _load_config(args.config, args.seed)
    if args.mechanisms:
        mechanisms = tuple(s.strip() for s in args.mechanisms.split(",") if s.strip())
        config = dataclasses.replace(config, mechanisms=mechanisms)
    results = run_experiment(config, jobs=args.jobs)
    out = Path(args.out)  # made only once the run is done: a refused run leaves none
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.json").write_text(results_to_json(config, results))
    print(
        f"ran {len(results)} runs "
        f"({config.replicas} replicas x {len(config.mechanisms)} mechanisms), "
        f"results.json in {out}"
    )
    return 0


def cmd_table(args) -> int:
    with open(args.results) as fh:
        _config, results = results_from_json(fh.read())
    if not results:
        raise ValueError(f"no runs in {args.results}; nothing to aggregate")
    rows = aggregate(results)
    text = table_text(rows)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "table.csv").write_text(table_csv(rows))
        (out / "table.txt").write_text(text)
    sys.stdout.write(text)
    return 0


def cmd_oracle(args) -> int:
    if bool(args.fixture) == bool(args.market):
        raise ValueError("pass exactly one of --fixture or --market")
    if args.fixture:
        market = load_fixture(args.fixture)
        label = args.fixture
    else:
        market = load_market(args.market)
        label = args.market
        diagnostics = validate_market(market)
        for sev, msg in diagnostics:
            if sev == "warning":
                print(f"capmatch: warning: {msg}", file=sys.stderr)
        errors = [msg for sev, msg in diagnostics if sev == "error"]
        if errors:
            raise ValueError(f"{label} is not a valid market: " + "; ".join(errors))
    result = census(market)
    doc = {
        "market": label,
        "n_matchings": len(result.matchings),
        "stable": list(result.stable),
        "envy_free": list(result.envy_free),
        "non_wasteful": list(result.non_wasteful),
        "weakly_stable": list(result.weakly_stable),
        "direct_envy_stable": list(result.direct_envy_stable),
        "pareto_efficient": list(result.pareto_efficient),
        "matchings": [
            [[x.student, x.college, x.resource] for x in mu]
            for mu in result.matchings
        ],
    }
    if args.verbose_witnesses:
        doc["reports"] = [
            rep.to_dict(verbose_witnesses=True) for rep in result.reports
        ]
    else:
        doc["reports"] = [rep.to_dict() for rep in result.reports]
    if args.fixture:
        checks = {}
        for flag, want in FIXTURE_EXPECTATIONS[args.fixture].items():
            got = list(getattr(result, flag))
            checks[flag] = {"want": list(want), "got": got, "pass": got == list(want)}
        doc["expectations"] = checks
        doc["expectations_pass"] = all(c["pass"] for c in checks.values())
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_fixtures(args) -> int:
    for name in fixture_names():
        print(f"{name}: {FIXTURES[name]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="capmatch",
        description="matching with regionally capped resources: simulate and audit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write replica markets and a manifest")
    g.add_argument("--config", required=True, help="experiment config JSON")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--seed", type=int, default=None, help="override master seed")
    g.set_defaults(fn=cmd_generate)

    r = sub.add_parser("run", help="run mechanisms over replicas, audit outcomes")
    r.add_argument("--config", required=True, help="experiment config JSON")
    r.add_argument("--out", required=True, help="output directory")
    r.add_argument("--mechanisms", default=None, help="comma list, e.g. irc,rsd")
    r.add_argument("--seed", type=int, default=None, help="override master seed")
    r.add_argument("--jobs", type=int, default=1, help="worker processes")
    r.set_defaults(fn=cmd_run)

    t = sub.add_parser("table", help="aggregate results into a table")
    t.add_argument("--results", required=True, help="results.json from `run`")
    t.add_argument("--out", default=None, help="directory for table.csv/table.txt")
    t.set_defaults(fn=cmd_table)

    o = sub.add_parser("oracle", help="exhaustive census of a small market")
    o.add_argument("--fixture", default=None, help="bundled market name")
    o.add_argument("--market", default=None, help="path to a market JSON file")
    o.add_argument(
        "--verbose-witnesses",
        action="store_true",
        help="include blocking witnesses in every report",
    )
    o.set_defaults(fn=cmd_oracle)

    f = sub.add_parser("fixtures", help="list bundled example markets")
    f.set_defaults(fn=cmd_fixtures)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        # str() of a KeyError quotes its message, so print the message itself
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"capmatch: error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
