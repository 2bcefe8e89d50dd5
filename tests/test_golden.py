"""Seeded outputs pinned across code changes.

The golden digests are sha256 sums of `results_to_json` for one small
experiment per alignment regime, each running all six mechanisms. A change
that moves one of them changes behaviour and must say so; re-pinning a
digest to get a green run is not allowed.

The differential test holds `run_irc` and `run_csd` to reference copies of
their original full-rescan loops: same markets, same seeds, equal traces.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from capmatch import (
    Contract,
    ExperimentConfig,
    GenConfig,
    Matching,
    generate_market,
    run_csd,
    run_experiment,
    run_irc,
)
from capmatch.experiments import results_to_json
from capmatch.generate import ALIGNMENTS
from capmatch.market import EMPTY_RESOURCE
from capmatch.mechanisms import RunTrace, _coupled, _Engine

GOLDEN = {
    "none": "cd44c85f4d4bb7efd32aa7a0dd669fdd9131ced248ce88b5370ffbf5c75b6971",
    "student_semi": "c48577c0fae10ed17ad0a20230f73d3a41a75c637316c8b0401ae5f5d295d628",
    "student_full": "3baafdc3dc582df0388448d4a53244e2981101f069d5dd83bd95475e4de10efc",
    "college_full": "df0e9ae49d5ab0105ad1f4e2fb5d15f329d22855a33bb25f216163023e5ce24e",
    "student_and_college_full": (
        "7db9b44529e3f0d34c07cd70853e579cdff66e40c3b9215e0396729da1e41c46"
    ),
}


def golden_config(alignment: str) -> ExperimentConfig:
    return ExperimentConfig(
        market=GenConfig(
            n_students=14, n_colleges=3, n_resources=2, alignment=alignment
        ),
        replicas=4,
        master_seed=2025,
        name=f"golden-{alignment}",
    )


@pytest.mark.parametrize("alignment", ALIGNMENTS)
def test_golden_results_digest(alignment):
    config = golden_config(alignment)
    text = results_to_json(config, run_experiment(config))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[alignment]


# -- reference copies of the rescanning loops ---------------------------------


def reference_irc(m, seed=None) -> RunTrace:
    """run_irc as first written: the candidate list rebuilt on every draw."""
    rng = np.random.default_rng(seed)
    eng = _Engine(m)
    n = m.n_students
    entries = [
        (c, r) for c in range(m.n_colleges) for r in range(m.n_resources + 1)
    ]
    failed: set[tuple[int, int]] = set()
    while True:
        candidates = [
            e for e in entries if eng.K[e[0]][e[1]] < n and e not in failed
        ]
        if not candidates:
            break
        c, r = candidates[int(rng.integers(len(candidates)))]
        if eng.try_raise(c, _coupled(eng.K[c], r)):
            failed.clear()
        else:
            failed.add((c, r))
    return eng.finish("irc", seed)


def reference_csd(m, seed=None) -> RunTrace:
    """run_csd as first written: every unmatched student rescanned per grant."""
    rng = np.random.default_rng(seed)
    ccount = [0] * m.n_colleges
    rcount = [0] * (m.n_resources + 1)
    pointer = [0] * m.n_students
    unmatched = list(range(m.n_students))
    granted: list[Contract] = []
    while True:
        best_key = None
        ties: list[tuple[int, int, int]] = []
        still: list[int] = []
        for s in unmatched:
            prefs = m.preferences[s]
            i = pointer[s]
            while i < len(prefs):
                c, r = prefs[i]
                if ccount[c] < m.college_quotas[c] and (
                    r == EMPTY_RESOURCE
                    or (
                        c in m.regions[r - 1]
                        and rcount[r] < m.resource_quotas[r - 1]
                    )
                ):
                    break
                i += 1
            pointer[s] = i
            if i >= len(prefs):
                continue
            still.append(s)
            c, r = prefs[i]
            key = m._rank[c][s]
            if best_key is None or key < best_key:
                best_key = key
                ties = [(s, c, r)]
            elif key == best_key:
                ties.append((s, c, r))
        if best_key is None:
            break
        s, c, r = ties[int(rng.integers(len(ties)))]
        granted.append(Contract(s, c, r))
        ccount[c] += 1
        rcount[r] += 1
        unmatched = [t for t in still if t != s]
    return RunTrace(
        mechanism="csd", seed=seed, moves=tuple(granted), matching=Matching(granted)
    )


def differential_markets():
    """Small generated markets over every regime, region scheme and balance."""
    shapes = [(6, 2, 1), (12, 3, 2), (25, 4, 3)]
    regions = ("all", "partition", "random:2")
    balances = ("balanced", "down", "up")
    rng = np.random.default_rng(7)
    for (n, c, r), alignment, scheme, balance in itertools.product(
        shapes, ALIGNMENTS, regions, balances
    ):
        cfg = GenConfig(
            n_students=n,
            n_colleges=c,
            n_resources=r,
            alignment=alignment,
            region_scheme=scheme,
            college_balance=balance,
            resource_balance=balance,
        )
        try:
            yield generate_market(cfg, seed=int(rng.integers(1 << 48)))
        except ValueError:
            continue  # a "down" budget can starve the split
    for alignment in ALIGNMENTS:  # the headline shape
        cfg = GenConfig(alignment=alignment)
        yield generate_market(cfg, seed=int(rng.integers(1 << 48)))


@pytest.mark.parametrize(
    "mechanism, reference", [(run_irc, reference_irc), (run_csd, reference_csd)]
)
def test_traces_match_the_rescanning_reference(mechanism, reference):
    checked = 0
    for i, m in enumerate(differential_markets()):
        for seed in (i, 1000 + i, 2000 + i):
            assert mechanism(m, seed=seed) == reference(m, seed=seed), (i, seed)
            checked += 1
    assert checked >= 400
