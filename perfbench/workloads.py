"""The four benchmark workloads: their inputs, built from a seed, and one round.

A round is one pass over a workload's fixed market list through the public
API. Simulation workloads make the calls behind `capmatch run` and
`capmatch table`; `census` makes one `oracle.census` call per market.
Every call goes through a module attribute (`ex.run_experiment`,
`oracle.census`, ...), so the traced run can wrap it.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from capmatch import experiments as ex
from capmatch import oracle
from capmatch.generate import GenConfig, generate_market
from capmatch.market import validate_market
from capmatch.mechanisms import MECHANISM_ORDER

WORKLOADS = ("headline", "aligned", "dictators_2000", "census")

# census markets: few students, scarce (`down`) quotas, and a band of
# matching counts, so every census costs about the same. The first
# CENSUS_CANDIDATES candidates are always enumerated: how many a seed needs
# to fill its list varies (about 230 to 560), and set-up work should not.
CENSUS_MARKET = GenConfig(
    n_students=6,
    n_colleges=2,
    n_resources=2,
    college_balance="down",
    resource_balance="down",
)
CENSUS_MARKETS = 30
CENSUS_BAND = (280, 320)
CENSUS_CANDIDATES = 800


@dataclass
class Inputs:
    """What the program receives: experiment configs, or census markets."""

    name: str
    configs: tuple = ()
    markets: tuple = ()

    @property
    def markets_per_round(self) -> int:
        if self.configs:
            return sum(cfg.replicas for cfg in self.configs)
        return len(self.markets)


def _experiment(seed: int, name: str, replicas: int, mechanisms, **market):
    return ex.ExperimentConfig(
        market=GenConfig(**market),
        replicas=replicas,
        mechanisms=tuple(mechanisms),
        master_seed=seed,
        name=name,
    )


def _census_markets(seed: int) -> tuple:
    """The first CENSUS_MARKETS valid markets, in seed order, whose number
    of feasible individually rational matchings lies in CENSUS_BAND,
    scanning at least CENSUS_CANDIDATES candidates."""
    lo, hi = CENSUS_BAND
    out = []
    i = 0
    while len(out) < CENSUS_MARKETS or i < CENSUS_CANDIDATES:
        m = generate_market(CENSUS_MARKET, seed=ex.market_seed(seed, i))
        i += 1
        if any(sev == "error" for sev, _ in validate_market(m)):
            continue
        in_band = lo <= len(oracle.enumerate_matchings(m)) <= hi
        if in_band and len(out) < CENSUS_MARKETS:
            out.append(m)
    return tuple(out)


def build(name: str, seed: int) -> Inputs:
    """The inputs of one workload; the same seed gives the same inputs."""
    if name == "headline":
        cfg = _experiment(seed, "headline", 24, MECHANISM_ORDER,
                          n_students=100, n_colleges=10, n_resources=5)
        return Inputs(name, configs=(cfg,))
    if name == "aligned":
        # more student_semi than student_and_college_full markets, so the
        # median market falls inside the tighter student_semi cost cluster
        # instead of on the boundary between the two
        return Inputs(name, configs=tuple(
            _experiment(seed, f"aligned_{a}", replicas, MECHANISM_ORDER,
                        n_students=200, n_colleges=10, n_resources=5,
                        alignment=a)
            for a, replicas in (("student_semi", 5), ("student_and_college_full", 3))
        ))
    if name == "dictators_2000":
        cfg = _experiment(seed, "dictators_2000", 6, ("rsd", "csd"),
                          n_students=2000, n_colleges=20, n_resources=5)
        return Inputs(name, configs=(cfg,))
    if name == "census":
        return Inputs(name, markets=_census_markets(seed))
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class Round:
    """One round's per-market wall times, the outputs the checks read, and
    the markets whose call raised (first error message kept)."""

    latencies: list
    outputs: list
    failed: int = 0
    error: str = ""


def run_round(inputs: Inputs) -> Round:
    """Process every market of the workload once, through the public API.

    Simulation outputs are (config, results, results.json text, table.csv,
    table.txt) per config; census outputs are the census of each market.
    A call that raises leaves None in outputs and counts its markets as
    failed: every replica of the config, or the one census market. Failed
    markets get no latency.
    """
    rnd = Round([], [])

    def fail(markets, exc):
        rnd.outputs.append(None)
        rnd.failed += markets
        rnd.error = rnd.error or f"{type(exc).__name__}: {exc}"

    for cfg in inputs.configs:
        stamps = [perf_counter()]
        try:
            results = ex.run_experiment(
                cfg, jobs=1, progress=lambda done, total: stamps.append(perf_counter())
            )
            text = ex.results_to_json(cfg, results)
            rows = ex.aggregate(results)
            rnd.outputs.append(
                (cfg, results, text, ex.table_csv(rows), ex.table_text(rows))
            )
        except Exception as exc:
            fail(cfg.replicas, exc)
            continue
        rnd.latencies += [b - a for a, b in zip(stamps, stamps[1:])]
    for m in inputs.markets:
        t0 = perf_counter()
        try:
            rnd.outputs.append(oracle.census(m))
        except Exception as exc:
            fail(1, exc)
            continue
        rnd.latencies.append(perf_counter() - t0)
    return rnd
