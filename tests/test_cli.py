"""CLI: the generate / run / table pipeline and the census viewer."""

import json

import pytest

from capmatch import ExperimentConfig, GenConfig, load_market
from capmatch.cli import main

TINY = ExperimentConfig(
    market=GenConfig(n_students=8, n_colleges=3, n_resources=1),
    replicas=3,
    mechanisms=("imc", "rsd"),
    master_seed=11,
)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY.to_dict()))
    return path


def test_generate_writes_markets_and_manifest(tmp_path, config_path, capsys):
    out = tmp_path / "markets"
    assert main(["generate", "--config", str(config_path), "--out", str(out)]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == [
        "manifest.json", "market_0000.json", "market_0001.json", "market_0002.json",
    ]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["replicas"] == 3
    assert len(manifest["market_seeds"]) == 3
    m = load_market(out / "market_0000.json")
    assert m.n_students == 8
    assert "manifest.json" in capsys.readouterr().out


def test_zero_replicas_generates_a_manifest_only(tmp_path, capsys):
    cfg = ExperimentConfig(
        market=GenConfig(n_students=8, n_colleges=3, n_resources=1),
        replicas=0,
        mechanisms=("imc",),
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    out = tmp_path / "markets"
    assert main(["generate", "--config", str(path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    capsys.readouterr()

    # running it yields an empty results file, which table refuses
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["table", "--results", str(out / "results.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_run_then_table(tmp_path, config_path, capsys):
    out = tmp_path / "exp"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    results = json.loads((out / "results.json").read_text())
    assert len(results["results"]) == 3 * 2
    capsys.readouterr()

    assert main(["table", "--results", str(out / "results.json"),
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "imc" in printed and "rsd" in printed
    csv = (out / "table.csv").read_text()
    assert csv.splitlines()[0].startswith("alignment,mechanism,")
    assert len(csv.splitlines()) == 3  # header + one row per mechanism
    assert (out / "table.txt").read_text() == printed


def row_1(doc):
    return doc["results"][1]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: row_1(doc)["counts"].update(seat="3"),
         "results row 1 key 'seat' must be a non-negative int, not '3'"),
        (lambda doc: row_1(doc)["counts"].update(seat=True),
         "results row 1 key 'seat' must be a non-negative int, not True"),
        (lambda doc: row_1(doc)["counts"].update(seat=-1),
         "results row 1 key 'seat' must be a non-negative int, not -1"),
        (lambda doc: row_1(doc)["counts"].pop("seat"),
         "results row 1 key 'counts' lacks key 'seat'"),
        (lambda doc: row_1(doc)["counts"].update(waste=0),
         "results row 1 key 'counts' has unknown key 'waste'"),
        (lambda doc: row_1(doc).update(mechanism="xyz"),
         "results row 1 key 'mechanism' names unknown mechanism 'xyz'"),
        (lambda doc: row_1(doc).pop("alignment"),
         "results row 1 lacks key 'alignment'"),
        (lambda doc: row_1(doc).update(total=10**6),
         "results row 1 key 'total' is 1000000, but its counts sum to "),
        (lambda doc: doc["results"].__setitem__(1, 5),
         "results row 1 must be an object"),
        (lambda doc: doc.update(results={}),
         "results key 'results' must be a list of runs"),
    ],
    ids=["string-count", "bool-count", "negative-count", "missing-count",
         "unknown-count", "unknown-mechanism", "missing-key", "wrong-total",
         "row-not-an-object", "results-not-a-list"],
)
def test_table_refuses_a_malformed_results_file(
    tmp_path, config_path, capsys, edit, message
):
    out = tmp_path / "exp"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    path = out / "results.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["table", "--results", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"capmatch: error: {message}")
    assert not (out / "table.txt").exists()


def test_pipeline_is_byte_stable(tmp_path, config_path):
    for sub in ("a", "b"):
        base = tmp_path / sub
        main(["generate", "--config", str(config_path), "--out", str(base / "m")])
        main(["run", "--config", str(config_path), "--out", str(base)])
        main(["table", "--results", str(base / "results.json"),
              "--out", str(base)])
    for rel in ("m/market_0000.json", "m/manifest.json", "results.json",
                "table.csv", "table.txt"):
        a = (tmp_path / "a" / rel).read_bytes()
        b = (tmp_path / "b" / rel).read_bytes()
        assert a == b, rel


def test_run_mechanism_and_seed_overrides(tmp_path, config_path):
    out = tmp_path / "exp"
    assert main(["run", "--config", str(config_path), "--out", str(out),
                 "--mechanisms", "iuc", "--seed", "99"]) == 0
    doc = json.loads((out / "results.json").read_text())
    assert doc["config"]["mechanisms"] == ["iuc"]
    assert doc["config"]["master_seed"] == 99
    assert {r["mechanism"] for r in doc["results"]} == {"iuc"}


def test_oracle_on_a_fixture(capsys):
    assert main(["oracle", "--fixture", "example1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_matchings"] == 5
    assert doc["stable"] == []
    assert doc["direct_envy_stable"] == [2, 4]
    assert len(doc["reports"]) == 5
    assert "waste_witnesses" not in doc["reports"][0]
    assert doc["expectations_pass"] is True
    assert doc["expectations"]["stable"] == {"want": [], "got": [], "pass": True}


def test_oracle_checks_expectations_on_every_fixture(capsys):
    from capmatch.fixtures import fixture_names

    for name in fixture_names():
        assert main(["oracle", "--fixture", name]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["expectations_pass"] is True, name


def test_oracle_verbose_witnesses(capsys):
    assert main(["oracle", "--fixture", "example1", "--verbose-witnesses"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["reports"][0]["waste_witnesses"]) == 4


def test_oracle_on_a_market_file(tmp_path, capsys):
    from capmatch import load_fixture
    from capmatch.market import save_market

    path = tmp_path / "m.json"
    save_market(load_fixture("prop2"), path)
    assert main(["oracle", "--market", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["direct_envy_stable"] == [8]
    # expectations are only checked for named fixtures
    assert "expectations" not in doc


def test_oracle_refuses_an_invalid_market_file(tmp_path, capsys):
    from capmatch import load_fixture
    from capmatch.market import market_to_dict

    doc = market_to_dict(load_fixture("example1"))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert main(["oracle", "--market", str(path)]) == 0
    err = capsys.readouterr().err
    assert "warning: student 0 lists (0,1) without (0,0) after it" in err

    doc["priorities"] = [[0, 0], [0, 1]]
    path.write_text(json.dumps(doc))
    assert main(["oracle", "--market", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err
    assert "college 0 priority list is not a permutation" in captured.err


def without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: [], "market must be an object"),
        (lambda doc: without(doc, "students"), "market lacks key 'students'"),
        (lambda doc: {**doc, "name": "x"}, "market has unknown key 'name'"),
        (
            lambda doc: {**doc, "students": "2"},
            "market key 'students' must be an integer, not str",
        ),
        (lambda doc: {**doc, "colleges": 2}, "market key 'colleges' must be a list"),
        (
            lambda doc: {**doc, "colleges": [{"quota": 1}, {}]},
            "market key 'colleges' entry 1 lacks key 'quota'",
        ),
        (
            lambda doc: {**doc, "resources": [{"quota": 1, "region": 0}]},
            "market key 'resources' entry 0 key 'region' must be a list",
        ),
        (
            lambda doc: {**doc, "priorities": [[0, "1"], [0, 1]]},
            "market key 'priorities' entry 0 must be a list",
        ),
        (
            lambda doc: {**doc, "preferences": [[0], *doc["preferences"][1:]]},
            "market key 'preferences' entry 0 must be a list of",
        ),
    ],
    ids=["not-an-object", "missing-key", "unknown-key", "string-count",
         "colleges-not-a-list", "college-without-quota", "region-not-a-list",
         "string-priority", "bare-int-preference"],
)
def test_oracle_refuses_a_malformed_market_file_by_key(
    tmp_path, capsys, edit, message
):
    from capmatch import load_fixture
    from capmatch.market import market_to_dict

    path = tmp_path / "m.json"
    path.write_text(json.dumps(edit(market_to_dict(load_fixture("example1")))))
    assert main(["oracle", "--market", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"capmatch: error: {message}")


def test_oracle_argument_errors(capsys):
    assert main(["oracle"]) == 1
    assert main(["oracle", "--fixture", "example1", "--market", "x.json"]) == 1
    assert main(["oracle", "--fixture", "no_such_market"]) == 1
    err = capsys.readouterr().err
    assert "error" in err


def test_oracle_names_an_unknown_fixture_without_quotes(capsys):
    from capmatch.fixtures import fixture_names

    assert main(["oracle", "--fixture", "nope"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "capmatch: error: unknown fixture 'nope'; available: "
        f"{', '.join(fixture_names())}\n"
    )


def test_fixtures_listing(capsys):
    assert main(["fixtures"]) == 0
    out = capsys.readouterr().out
    for name in ("example1", "example2", "prop2", "prop4",
                 "prop8_market1", "prop8_market2"):
        assert name in out


@pytest.mark.parametrize("command", ["run", "generate"])
@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda doc: doc["market"].update(n_resource=1), "'n_resource'"),
        (lambda doc: doc.update(replica=2), "'replica'"),
    ],
    ids=["market-key", "top-level-key"],
)
def test_unknown_config_keys_are_clean_errors(tmp_path, capsys, command, edit, key):
    doc = TINY.to_dict()
    edit(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("capmatch: error: unknown ") and key in err
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda doc: doc.update(replicas="2"), "'replicas'"),
        (lambda doc: doc.update(replicas=True), "'replicas'"),
        (lambda doc: doc["market"].update(n_students="8"), "'n_students'"),
        (lambda doc: doc.update(mechanisms="irc"), "'mechanisms'"),
    ],
    ids=["string-count", "bool-count", "string-shape", "string-mechanisms"],
)
def test_config_values_of_the_wrong_type_are_clean_errors(
    tmp_path, capsys, edit, key
):
    doc = TINY.to_dict()
    edit(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("capmatch: error: ") and key in err
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, argv, key",
    [
        (lambda doc: doc.update(master_seed=-5), [], "'master_seed'"),
        (lambda doc: None, ["--seed", "-5"], "'master_seed'"),
        (lambda doc: doc["market"].update(seed=-5), [], "'seed'"),
        (
            lambda doc: doc["market"].update(region_scheme="random:x"),
            [],
            "'region_scheme'",
        ),
    ],
    ids=["negative-master-seed", "negative-seed-flag", "negative-market-seed",
         "random-region-size-not-a-number"],
)
def test_config_values_out_of_range_name_their_key(
    tmp_path, capsys, edit, argv, key
):
    doc = TINY.to_dict()
    edit(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("capmatch: error: ") and key in err
    assert not out.exists()


@pytest.mark.parametrize(
    "mechanisms, argv, message",
    [
        (["irc", "irc"], [], "repeats 'irc'"),
        (["rsd", "irc", "rsd"], [], "repeats 'rsd'"),
        ([], [], "at least one"),
        (["imc"], ["--mechanisms", "irc,irc"], "repeats 'irc'"),
        (["imc"], ["--mechanisms", ","], "at least one"),
    ],
    ids=["repeat", "repeat-apart", "empty", "repeat-flag", "empty-flag"],
)
def test_repeated_or_missing_mechanisms_are_clean_errors(
    tmp_path, capsys, mechanisms, argv, message
):
    doc = TINY.to_dict()
    doc["mechanisms"] = mechanisms
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("capmatch: error: ") and "'mechanisms'" in err
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_fewer_than_one_job_is_a_clean_error(tmp_path, config_path, capsys, jobs):
    out = tmp_path / "out"
    argv = ["run", "--config", str(config_path), "--out", str(out), "--jobs", jobs]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"capmatch: error: jobs must be >= 1, got {jobs}\n"
    assert not out.exists()


def test_generate_leaves_no_directory_when_no_market_can_be_made(tmp_path, capsys):
    path = tmp_path / "config.json"
    market = {"n_students": 2, "n_colleges": 5, "n_resources": 1,
              "college_balance": "down"}
    path.write_text(json.dumps({"market": market, "replicas": 3}))
    out = tmp_path / "out"
    assert main(["generate", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (
        "capmatch: error: college budget 1 cannot give 5 colleges a seat each\n"
    )
    assert not out.exists()


def test_a_config_that_is_not_an_object_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    for doc in ([1, 2], {"market": 5}):
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert "must be an object" in capsys.readouterr().err


def test_a_config_without_a_market_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"replicas": 2}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "capmatch: error: experiment config lacks key 'market'\n"
    assert not out.exists()


def test_missing_config_is_a_clean_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 1
    assert "error" in capsys.readouterr().err
