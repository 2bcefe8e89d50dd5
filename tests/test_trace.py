"""The benchmark's trace (perfbench/spans.py) against the program.

`traced` patches module attributes of capmatch by name, oracle.audit among
them, which oracle itself never calls. A removed or renamed attribute
would break `perfbench/run.py --trace` only, so this test runs the trace
over one census and one small experiment.
"""

import importlib.util
from pathlib import Path

from capmatch import ExperimentConfig, GenConfig, load_fixture
from capmatch import experiments as ex
from capmatch import generate as gen
from capmatch import oracle
from capmatch.mechanisms import MECHANISM_ORDER, MECHANISMS

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_trace_counts_each_layer_and_restores_every_patched_attribute():
    spans = _load_spans()
    owners = (ex, gen, oracle, MECHANISMS)

    def snapshot():
        return [dict(o if isinstance(o, dict) else vars(o)) for o in owners]

    before = snapshot()
    m = load_fixture("prop4")
    config = ExperimentConfig(
        market=GenConfig(n_students=8, n_colleges=3, n_resources=1), replicas=1
    )
    tracer = spans.Tracer()
    with spans.traced(tracer):
        assert oracle.audit is not before[2]["audit"]
        result = oracle.census(m)
        assert len(oracle.enumerate_matchings(m)) == len(result.matchings)
        ex.run_experiment(config)
    after = snapshot()
    for was, now in zip(before, after):
        assert was.keys() == now.keys()
        assert all(now[k] is v for k, v in was.items())

    counts = tracer.counts
    for mech in MECHANISM_ORDER:
        assert counts[f"mechanisms.{mech}.moves"] > 0, mech
    assert counts["blocking.audit.calls"] == len(MECHANISM_ORDER)
    assert counts["oracle.matchings"] == len(result.matchings) > 0
    names = {span[0] for span in tracer.spans}
    assert {"oracle.census", "oracle.enumerate", "experiments.run"} <= names
