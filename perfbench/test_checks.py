"""Tests of the benchmark's own output checks, on the bundled fixtures.

    python3 -m pytest perfbench -q
"""

import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402
from capmatch import (  # noqa: E402
    ExperimentConfig,
    GenConfig,
    RunResult,
    audit,
    census,
    enumerate_matchings,
    fixture_names,
    load_fixture,
)

import checks  # noqa: E402


@pytest.mark.parametrize("name", fixture_names())
def test_recomputed_counts_match_the_audit_on_every_fixture_matching(name):
    m = load_fixture(name)
    for mu in enumerate_matchings(m):
        xs = [tuple(x) for x in mu]
        assert checks.feasible(m, xs) and checks.individually_rational(m, xs)
        assert checks.blocking_counts(m, xs) == audit(m, mu).counts, mu


@pytest.mark.parametrize("name", fixture_names())
def test_brute_force_count_matches_the_enumeration(name):
    m = load_fixture(name)
    assert checks.count_feasible_ir(m) == len(enumerate_matchings(m))


def test_feasibility_and_rationality_are_recomputed_from_the_quotas():
    m = load_fixture("example1")  # quotas 1, 1; one unit, region {0, 1}
    assert checks.feasible(m, [(0, 0, 1)])
    assert not checks.feasible(m, [(0, 0, 1), (1, 1, 1)])  # two units
    assert not checks.feasible(m, [(0, 0, 0), (1, 0, 0)])  # two seats at 0
    assert not checks.feasible(m, [(0, 0, 1), (0, 1, 0)])  # student twice
    assert not checks.individually_rational(m, [(0, 0, 0)])  # unlisted pair


def test_the_fixture_statements_hold():
    assert checks.check_fixtures() == []


def test_census_check_catches_a_missing_matching_and_a_wrong_report():
    m = load_fixture("prop4")
    result = census(m)
    assert checks.check_census(m, result, 0, "prop4") == []
    short = replace(result, matchings=result.matchings[1:], reports=result.reports[1:])
    assert any("brute force" in p for p in checks.check_census(m, short, 0, "prop4"))
    wrong = audit(m, result.matchings[0])
    wrong = replace(wrong, counts={**wrong.counts, "seat": wrong.counts["seat"] + 1})
    bad = replace(result, reports=(wrong, *result.reports[1:]))
    assert any("recomputed" in p for p in checks.check_census(m, bad, 0, "prop4"))


def _row(mech, counts, alignment="none", total=None):
    total = sum(counts.values()) if total is None else total
    return RunResult(0, mech, alignment, 0, 0, counts, total)


def test_row_properties_flag_what_the_mechanisms_rule_out():
    zero = dict.fromkeys(checks.CATEGORIES, 0)
    cfg = ExperimentConfig(market=GenConfig(), replicas=1, mechanisms=("irc",))
    assert checks.check_rows(cfg, [_row("irc", zero)]) == []
    cases = [
        _row("irc", {**zero, "direct_envy": 1}),
        _row("iuc", {**zero, "indirect_envy": 1}),
        _row("iuc", {**zero, "resource": 1}),
        _row("rsd", {**zero, "seat": 1}),
        _row("csd", {**zero, "indirect_envy": 1}, "student_and_college_full"),
        _row("irc", zero, total=1),
    ]
    for row in cases:
        one = replace(cfg, mechanisms=(row.mechanism,))
        assert checks.check_rows(one, [row]), row
    assert checks.check_rows(cfg, []), "a missing cell must be reported"


def test_recheck_cells_agrees_with_a_real_run_and_catches_a_changed_count():
    from capmatch import run_experiment

    cfg = ExperimentConfig(market=GenConfig(n_students=30, n_colleges=4, n_resources=2),
                           replicas=2, master_seed=5)
    results = run_experiment(cfg)
    assert checks.recheck_cells(cfg, results, 0) == []
    results = [replace(r, counts={**r.counts, "seat": r.counts["seat"] + 1})
               for r in results]
    assert checks.recheck_cells(cfg, results, 0)


def test_a_round_counts_the_markets_whose_call_raises(monkeypatch):
    import workloads
    from capmatch import experiments, oracle

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    cfg = ExperimentConfig(market=GenConfig(n_students=10, n_colleges=2, n_resources=1),
                           replicas=3, mechanisms=("rsd",))
    ok = workloads.run_round(workloads.Inputs("sim", configs=(cfg,)))
    assert (ok.failed, len(ok.latencies)) == (0, 3)
    monkeypatch.setattr(experiments, "run_experiment", boom)
    rnd = workloads.run_round(workloads.Inputs("sim", configs=(cfg, cfg)))
    assert (rnd.failed, rnd.outputs, rnd.latencies) == (6, [None, None], [])
    assert rnd.error == "RuntimeError: boom"
    monkeypatch.setattr(oracle, "census", boom)
    m = load_fixture("prop2")
    rnd = workloads.run_round(workloads.Inputs("census", markets=(m, m)))
    assert (rnd.failed, rnd.outputs) == (2, [None, None])
