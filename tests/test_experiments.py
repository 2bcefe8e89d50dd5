"""Experiment harness: seed plumbing, aggregation, table output."""

import math

import pytest

from capmatch import (
    ExperimentConfig,
    GenConfig,
    MECHANISMS,
    RunResult,
    aggregate,
    audit,
    format_cell,
    generate_market,
    market_seed,
    mechanism_seed,
    run_experiment,
    run_one,
    table_csv,
    table_text,
)
from capmatch.experiments import results_from_json, results_to_json

TINY = GenConfig(n_students=8, n_colleges=3, n_resources=1)


def test_seed_derivation_is_frozen():
    # these values come from the seed-mixing function itself and pin the
    # derivation scheme: changing the path layout breaks reproducibility
    # of every published run
    assert market_seed(0, 0) == 15793235383387715774
    assert market_seed(0, 1) == 8649202198168436674
    assert mechanism_seed(0, 0, "irc") == 5836529245451711556
    assert mechanism_seed(0, 0, "csd") == 18284510085903553843
    assert mechanism_seed(7, 3, "imc") == 2090454851744086039


def test_seed_streams_do_not_collide():
    seen = {market_seed(1, r) for r in range(50)}
    seen |= {mechanism_seed(1, r, m) for r in range(50) for m in MECHANISMS}
    assert len(seen) == 50 + 50 * len(MECHANISMS)


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(market=TINY, replicas=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(market=TINY, mechanisms=("irc", "nope"))
    with pytest.raises(ValueError, match="'mechanisms' repeats 'irc'"):
        ExperimentConfig(market=TINY, mechanisms=("irc", "rsd", "irc"))
    with pytest.raises(ValueError, match="'mechanisms' must name at least one"):
        ExperimentConfig(market=TINY, mechanisms=())
    # zero replicas is a legal manifest-only experiment
    assert run_experiment(ExperimentConfig(market=TINY, replicas=0)) == []
    cfg = ExperimentConfig(market=TINY, replicas=2)
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    # keys left out take the dataclass defaults
    assert ExperimentConfig.from_dict({"market": {}}) == ExperimentConfig(GenConfig())


def test_config_digest_tracks_content():
    a = ExperimentConfig(market=TINY, replicas=2)
    b = ExperimentConfig(market=TINY, replicas=3)
    assert len(a.digest()) == 12
    assert a.digest() == ExperimentConfig(market=TINY, replicas=2).digest()
    assert a.digest() != b.digest()


def test_run_one_matches_a_direct_run():
    m = generate_market(TINY, seed=market_seed(5, 0))
    seed = mechanism_seed(5, 0, "rsd")
    counts, total = run_one(m, "rsd", seed)
    rep = audit(m, MECHANISMS["rsd"](m, seed=seed).matching)
    assert counts == rep.counts and total == rep.total


def test_run_experiment_layout_and_determinism():
    cfg = ExperimentConfig(
        market=TINY, replicas=3, mechanisms=("imc", "rsd"), master_seed=17,
    )
    calls = []
    results = run_experiment(cfg, progress=lambda *args: calls.append(args))
    assert calls == [(1, 3), (2, 3), (3, 3)]  # once per replica, in order
    assert len(results) == 6
    assert [(r.replica, r.mechanism) for r in results] == [
        (0, "imc"), (0, "rsd"), (1, "imc"), (1, "rsd"), (2, "imc"), (2, "rsd"),
    ]
    for r in results:
        assert r.alignment == "none"
        assert r.market_seed == market_seed(17, r.replica)
        assert r.mech_seed == mechanism_seed(17, r.replica, r.mechanism)
        assert r.total == sum(r.counts.values())
    assert run_experiment(cfg) == results


def test_a_process_pool_gives_the_serial_results():
    cfg = ExperimentConfig(
        market=TINY, replicas=3, mechanisms=("irc", "csd"), master_seed=4,
    )
    calls = []
    pooled = run_experiment(cfg, jobs=2, progress=lambda *args: calls.append(args))
    assert pooled == run_experiment(cfg, jobs=1)
    assert calls == [(1, 3), (2, 3), (3, 3)]


@pytest.mark.parametrize("jobs", [0, -1])
def test_fewer_than_one_job_is_refused(jobs):
    cfg = ExperimentConfig(market=TINY, replicas=1, mechanisms=("rsd",))
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        run_experiment(cfg, jobs=jobs)


def test_aggregate_math():
    def rr(replica, mech, total):
        counts = {"resource": 0, "seat": total, "direct_envy": 0, "indirect_envy": 0}
        return RunResult(
            replica=replica, mechanism=mech, alignment="none",
            market_seed=0, mech_seed=0, counts=counts, total=total,
        )

    rows = aggregate([rr(0, "irc", 1), rr(1, "irc", 3), rr(0, "rsd", 2)])
    by_mech = {row.mechanism: row for row in rows}
    irc = by_mech["irc"]
    assert irc.n == 2
    assert irc.means["total"] == 2.0
    assert math.isclose(irc.stds["total"], math.sqrt(2))  # sample std, ddof=1
    assert irc.means["seat"] == 2.0
    rsd = by_mech["rsd"]
    assert rsd.n == 1
    assert rsd.stds["total"] == 0.0  # a single run has no spread
    # mechanism order in rows follows the registry, not insertion
    assert [row.mechanism for row in rows] == ["irc", "rsd"]


def test_format_cell_uses_plain_float_repr():
    assert format_cell(0.0, 0.0) == "0.0±0.0"
    assert format_cell(10.4, 6.5284) == "10.4±6.528"
    assert format_cell(2.0, 1.0) == "2.0±1.0"
    assert format_cell(3.14159, 0.00049) == "3.14±0.0"
    assert format_cell(11.318, 4.2) == "11.32±4.2"


def test_table_csv_layout():
    cfg = ExperimentConfig(market=TINY, replicas=2, mechanisms=("iuc",))
    rows = aggregate(run_experiment(cfg))
    csv = table_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == (
        "alignment,mechanism,resource,seat,direct_envy,indirect_envy,"
        "total_mean,total_std"
    )
    assert len(lines) == 2
    first = lines[1].split(",")
    assert first[0] == "none" and first[1] == "iuc"
    float(first[6]), float(first[7])  # totals parse as numbers


def test_table_text_mentions_every_group():
    cfg = ExperimentConfig(market=TINY, replicas=2, mechanisms=("irc", "csd"))
    text = table_text(aggregate(run_experiment(cfg)))
    assert "irc" in text and "csd" in text
    assert "±" in text


def test_results_json_round_trip():
    cfg = ExperimentConfig(market=TINY, replicas=2, mechanisms=("rsd",))
    results = run_experiment(cfg)
    doc = results_to_json(cfg, results)
    cfg2, results2 = results_from_json(doc)
    assert cfg2 == cfg and results2 == results
    assert doc == results_to_json(cfg2, results2)
    assert doc.endswith("\n")
