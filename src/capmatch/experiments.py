"""Simulation harness: replicated runs, aggregation, tables.

Seed policy: one master seed fans out through numpy SeedSequence trees, so
every replica's market and every (replica, mechanism) run gets its own
independent, platform-stable stream. Reruns of the same config are therefore
byte-identical, including every serialized artifact.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields

import numpy as np

from .blocking import BLOCK_CATEGORIES, audit
from .generate import GenConfig, _require_type, check_config_keys, generate_market
from .market import Market, _require_keys, validate_market
from .mechanisms import MECHANISM_ORDER, MECHANISMS

_MARKET_TAG = 0
_MECH_TAG = 1


def _child_seed(master: int, *path: int) -> int:
    ss = np.random.SeedSequence([int(master), *[int(p) for p in path]])
    return int(ss.generate_state(1, np.uint64)[0])


def market_seed(master: int, replica: int) -> int:
    return _child_seed(master, _MARKET_TAG, replica)


def mechanism_seed(master: int, replica: int, mechanism: str) -> int:
    return _child_seed(
        master, _MECH_TAG, replica, MECHANISM_ORDER.index(mechanism)
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a market sampler, a replica count, mechanisms to run."""

    market: GenConfig
    replicas: int = 100
    mechanisms: tuple[str, ...] = MECHANISM_ORDER
    master_seed: int = 0
    name: str = "experiment"

    def __post_init__(self):
        _require_type("experiment", self, ("replicas", "master_seed"), int)
        _require_type("experiment", self, ("name",), str)
        if not isinstance(self.mechanisms, tuple) or not all(
            isinstance(mech, str) for mech in self.mechanisms
        ):
            raise ValueError(
                "experiment config key 'mechanisms' must be a list of strings"
            )
        # zero replicas is allowed: generate then writes a manifest only
        if self.replicas < 0:
            raise ValueError("replica count cannot be negative")
        if self.master_seed < 0:  # numpy's SeedSequence takes none
            raise ValueError("experiment config key 'master_seed' must be >= 0")
        if not self.mechanisms:
            raise ValueError(
                "experiment config key 'mechanisms' must name at least one mechanism"
            )
        for k, mech in enumerate(self.mechanisms):
            if mech not in MECHANISMS:
                raise ValueError(f"unknown mechanism {mech!r}")
            if mech in self.mechanisms[:k]:
                raise ValueError(
                    f"experiment config key 'mechanisms' repeats {mech!r}"
                )

    def to_dict(self) -> dict:
        return dict(asdict(self), mechanisms=list(self.mechanisms))

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        """Raises ValueError on a non-object, an unknown key or no 'market'.

        Keys left out take the dataclass defaults."""
        check_config_keys(d, ExperimentConfig, "experiment")
        if "market" not in d:
            raise ValueError("experiment config lacks key 'market'")
        kwargs = dict(d, market=GenConfig.from_dict(d["market"]))
        if isinstance(d.get("mechanisms"), list):  # anything else __post_init__ refuses
            kwargs["mechanisms"] = tuple(d["mechanisms"])
        return ExperimentConfig(**kwargs)

    def digest(self) -> str:
        text = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class RunResult:
    """Audit counts for one (replica, mechanism) run."""

    replica: int
    mechanism: str
    alignment: str
    market_seed: int
    mech_seed: int
    counts: dict[str, int]
    total: int

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "RunResult":
        """d must have passed _check_result_row."""
        return RunResult(**d)


def run_one(market, mechanism: str, seed: int) -> tuple[dict[str, int], int]:
    """Run one mechanism on one market; return its audit counts and total."""
    trace = MECHANISMS[mechanism](market, seed=seed)
    report = audit(market, trace.matching)
    return dict(report.counts), report.total


def replica_market(config: ExperimentConfig, replica: int) -> tuple[Market, int]:
    """The generated market of one replica, checked by validate_market, and
    its seed.

    Raises:
        RuntimeError: the market fails validation.
    """
    mseed = market_seed(config.master_seed, replica)
    market = generate_market(config.market, seed=mseed)
    errors = [msg for sev, msg in validate_market(market) if sev == "error"]
    if errors:
        raise RuntimeError(f"replica {replica} failed validation: {errors[:3]}")
    return market, mseed


def _run_replica(config: ExperimentConfig, replica: int) -> list[RunResult]:
    market, mseed = replica_market(config, replica)
    out = []
    for mech in sorted(config.mechanisms, key=MECHANISM_ORDER.index):
        kseed = mechanism_seed(config.master_seed, replica, mech)
        counts, total = run_one(market, mech, kseed)
        out.append(
            RunResult(
                replica=replica,
                mechanism=mech,
                alignment=config.market.alignment,
                market_seed=mseed,
                mech_seed=kseed,
                counts=counts,
                total=total,
            )
        )
    return out


def run_experiment(
    config: ExperimentConfig, jobs: int = 1, progress=None
) -> list[RunResult]:
    """All replicas x mechanisms, deterministically ordered.

    jobs > 1 fans replicas over processes; results are identical to a serial
    run because every run's seed is derived, not drawn from shared state.
    Raises ValueError for jobs < 1.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    results: list[RunResult] = []
    run = functools.partial(_run_replica, config)
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        replicas = (pool.map if pool else map)(run, range(config.replicas))
        for i, rows in enumerate(replicas, 1):
            results.extend(rows)
            if progress:
                progress(i, config.replicas)
    return results


# -- aggregation -------------------------------------------------------------


@dataclass(frozen=True)
class AggregateRow:
    """Mean and sample std (ddof=1; 0.0 for a single replica) per category."""

    alignment: str
    mechanism: str
    n: int
    means: dict[str, float]
    stds: dict[str, float]


def aggregate(results: list[RunResult]) -> list[AggregateRow]:
    groups: dict[tuple[str, str], list[RunResult]] = {}
    for r in results:
        groups.setdefault((r.alignment, r.mechanism), []).append(r)
    order = {mech: k for k, mech in enumerate(MECHANISM_ORDER)}
    rows = []
    for (alignment, mech) in sorted(groups, key=lambda k: (k[0], order[k[1]])):
        rs = groups[(alignment, mech)]
        means: dict[str, float] = {}
        stds: dict[str, float] = {}
        for cat in (*BLOCK_CATEGORIES, "total"):
            xs = np.array(
                [r.total if cat == "total" else r.counts[cat] for r in rs], dtype=float
            )
            means[cat] = float(xs.mean())
            stds[cat] = float(xs.std(ddof=1)) if len(xs) > 1 else 0.0
        rows.append(
            AggregateRow(
                alignment=alignment,
                mechanism=mech,
                n=len(rs),
                means=means,
                stds=stds,
            )
        )
    return rows


def format_cell(mean: float, std: float) -> str:
    """mean to 2 decimals, std to 3, float repr style ("0.0±0.0")."""
    return f"{round(float(mean), 2)}±{round(float(std), 3)}"


# the columns both tables share; only the total column(s) differ
_LEADING_HEADERS = ["alignment", "mechanism", *BLOCK_CATEGORIES]


def _leading_cells(row: AggregateRow) -> list[str]:
    return [row.alignment, row.mechanism] + [
        format_cell(row.means[cat], row.stds[cat]) for cat in BLOCK_CATEGORIES
    ]


def table_csv(rows: list[AggregateRow]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_LEADING_HEADERS + ["total_mean", "total_std"])
    for row in rows:
        w.writerow(
            _leading_cells(row)
            + [repr(round(row.means["total"], 6)), repr(round(row.stds["total"], 6))]
        )
    return buf.getvalue()


def table_text(rows: list[AggregateRow]) -> str:
    headers = _LEADING_HEADERS + ["total"]
    body = [
        _leading_cells(row) + [format_cell(row.means["total"], row.stds["total"])]
        for row in rows
    ]
    widths = [max(map(len, column)) for column in zip(headers, *body)]
    lines = [headers, ["-" * w for w in widths], *body]
    return "".join(
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)) + "\n"
        for line in lines
    )


def results_to_json(config: ExperimentConfig, results: list[RunResult]) -> str:
    doc = {
        "digest": config.digest(),
        "config": config.to_dict(),
        "results": [r.to_dict() for r in results],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def results_from_json(text: str) -> tuple[ExperimentConfig, list[RunResult]]:
    """Read results_to_json's text back.

    Raises:
        ValueError: the text is not such a document; the message names the
            first bad key, and the row it sits in.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("results"), list):
        raise ValueError("results key 'results' must be a list of runs")
    config = ExperimentConfig.from_dict(doc.get("config"))
    for i, row in enumerate(doc["results"]):
        _check_result_row(i, row)
    return config, [RunResult.from_dict(d) for d in doc["results"]]


def _check_result_row(i: int, row) -> None:
    """Raise ValueError naming row i and its first key that RunResult.to_dict
    would not have written."""
    where = f"results row {i}"
    _require_keys(where, row, [f.name for f in fields(RunResult)])
    if row["mechanism"] not in MECHANISM_ORDER:
        raise ValueError(
            f"{where} key 'mechanism' names unknown mechanism {row['mechanism']!r}"
        )
    if not isinstance(row["alignment"], str):
        raise ValueError(f"{where} key 'alignment' must be a string")
    counts = row["counts"]
    _require_keys(f"{where} key 'counts'", counts, BLOCK_CATEGORIES)
    for key, value in [*counts.items(), ("total", row["total"])]:
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValueError(
                f"{where} key {key!r} must be a non-negative int, not {value!r}"
            )
    if row["total"] != sum(counts.values()):
        raise ValueError(
            f"{where} key 'total' is {row['total']}, but its counts sum to "
            f"{sum(counts.values())}"
        )
