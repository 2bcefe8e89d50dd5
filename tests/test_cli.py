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


def test_oracle_argument_errors(capsys):
    assert main(["oracle"]) == 1
    assert main(["oracle", "--fixture", "example1", "--market", "x.json"]) == 1
    assert main(["oracle", "--fixture", "no_such_market"]) == 1
    err = capsys.readouterr().err
    assert "error" in err


def test_fixtures_listing(capsys):
    assert main(["fixtures"]) == 0
    out = capsys.readouterr().out
    for name in ("example1", "example2", "prop2", "prop4",
                 "prop8_market1", "prop8_market2"):
        assert name in out


def test_missing_config_is_a_clean_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 1
    assert "error" in capsys.readouterr().err
