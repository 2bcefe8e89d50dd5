"""Seeded outputs pinned across code changes.

The golden digests are sha256 sums of `results_to_json` for one small
experiment per alignment regime, each running all six mechanisms, and of
`dumps_market` for generated markets of every regime and semi sampler. A
change that moves one of them changes behaviour and must say so; re-pinning
a digest to get a green run is not allowed.

The differential tests hold `run_irc`, `run_csd`, the grid sampler and the
audit's domination-witness search to reference copies of their original
loops: same inputs, same seeds, equal outputs.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from capmatch import (
    MECHANISMS,
    BlockingReport,
    Contract,
    ExperimentConfig,
    GenConfig,
    Matching,
    audit,
    enumerate_matchings,
    fixture_names,
    generate_market,
    is_dominated,
    load_fixture,
    run_csd,
    run_experiment,
    run_irc,
)
from capmatch.blocking import (
    DIRECT_ENVY,
    INDIRECT_ENVY,
    RESOURCE,
    SEAT,
    _envy_victims,
    _has_direct_victim,
    _require_auditable,
    _State,
    _waste_class,
)
from capmatch.experiments import results_to_json
from capmatch.generate import ALIGNMENTS, SEMI_SAMPLERS, _grid_order
from capmatch.market import EMPTY_RESOURCE, dumps_market
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


# (n, C, R, region scheme): the quality weights of C=10 and C=9 sum past
# eight entries, C=9/R=8 lets the grid frontier hold nine pairs, C=1 leaves a
# single college, R=0 leaves only empty-resource pairs
MARKET_SHAPES = [
    (14, 3, 2, "all"),
    (40, 10, 5, "partition"),
    (20, 9, 8, "random:4"),
    (6, 1, 2, "all"),
    (9, 3, 0, "all"),
]

MARKET_GOLDEN = {
    ("none", "quality"): (
        "7609248a7348b01638a86db783779a1f84660b3d29f115e290c8a13af820545f"
    ),
    ("none", "uniform"): (
        "7609248a7348b01638a86db783779a1f84660b3d29f115e290c8a13af820545f"
    ),
    ("student_semi", "quality"): (
        "02a857754ae47f77844f98e99e891301c759367a5ccfbac0d7050a1ab285389d"
    ),
    ("student_semi", "uniform"): (
        "55d72a14db6d05a9dd8224320155f5ffc68fc338bf6bc68ee26dd448432d9cc9"
    ),
    ("student_full", "quality"): (
        "55d72a14db6d05a9dd8224320155f5ffc68fc338bf6bc68ee26dd448432d9cc9"
    ),
    ("student_full", "uniform"): (
        "55d72a14db6d05a9dd8224320155f5ffc68fc338bf6bc68ee26dd448432d9cc9"
    ),
    ("college_full", "quality"): (
        "d39e7dc90b57012575167c2c43a0fbba617887a741f76f3012973abc3d9fdd3b"
    ),
    ("college_full", "uniform"): (
        "d39e7dc90b57012575167c2c43a0fbba617887a741f76f3012973abc3d9fdd3b"
    ),
    ("student_and_college_full", "quality"): (
        "e5a2c548b755ccc3669c8ef6176e8479652bec9c11a43f069a60107a8fc60ffe"
    ),
    ("student_and_college_full", "uniform"): (
        "e5a2c548b755ccc3669c8ef6176e8479652bec9c11a43f069a60107a8fc60ffe"
    ),
}


@pytest.mark.parametrize(
    "alignment, semi_sampler", list(itertools.product(ALIGNMENTS, SEMI_SAMPLERS))
)
def test_golden_market_digest(alignment, semi_sampler):
    h = hashlib.sha256()
    for n, c, r, scheme in MARKET_SHAPES:
        cfg = GenConfig(
            n_students=n,
            n_colleges=c,
            n_resources=r,
            alignment=alignment,
            region_scheme=scheme,
            semi_sampler=semi_sampler,
        )
        h.update(dumps_market(generate_market(cfg, seed=2025)).encode())
    assert h.hexdigest() == MARKET_GOLDEN[(alignment, semi_sampler)]


# -- reference copies of the original loops -----------------------------------


def reference_grid_order(cfg, rng, weights):
    """_grid_order as first written: a frontier set, re-sorted at every step,
    and a weighted pick through rng.choice."""
    c, r = cfg.n_colleges, cfg.n_resources
    emitted = [[False] * (r + 1) for _ in range(c)]
    frontier = {(c - 1, r)}
    out = []
    while frontier:
        items = sorted(frontier)
        if weights is None or len(items) == 1:
            pick = items[int(rng.integers(len(items)))]
        else:
            w = np.array([weights[ci] for ci, _ in items], dtype=float)
            pick = items[int(rng.choice(len(items), p=w / w.sum()))]
        frontier.remove(pick)
        ci, ri = pick
        emitted[ci][ri] = True
        out.append(pick)
        for child in ((ci - 1, ri), (ci, ri - 1)):
            cc, cr = child
            if cc < 0 or cr < 0:
                continue
            above_c = cc + 1 >= c or emitted[cc + 1][cr]
            above_r = cr + 1 > r or emitted[cc][cr + 1]
            if above_c and above_r:
                frontier.add(child)
    return out


def test_grid_order_matches_the_sorted_frontier_reference():
    """Weighted and uniform draws interleave on one stream per side; the
    orders and the stream position afterwards must agree."""
    checked = 0
    for c, r in itertools.product(range(1, 13), (0, 1, 2, 5, 9)):
        cfg = GenConfig(n_students=c, n_colleges=c, n_resources=r)
        quality = np.arange(1, c + 1, dtype=float)
        rng, ref_rng = (np.random.default_rng(c * 100 + r) for _ in range(2))
        for _ in range(3):
            for weights in (quality, None):
                got = _grid_order(cfg, rng, weights)
                assert got == reference_grid_order(cfg, ref_rng, weights), (c, r)
                checked += 1
        assert rng.random() == ref_rng.random(), (c, r)
    assert checked == 360


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


# -- reference copies of the original domination-witness search --------------


def reference_direct_envy_after_move(m, st, moved, xp) -> bool:
    """Is xp direct-envy-blocking under mu' = mu with moved.student re-seated
    onto `moved`? (The original lazy overlay, one roster list per call.)"""
    s_moved = moved.student
    prev = st.assign[s_moved]
    s2, c, r2 = xp
    rank_row = m._rank[c]
    rs2 = rank_row[s2]
    if rs2 is None:
        return False

    roster_c = [y for y in st.roster[c] if y.student != s_moved]
    if moved.college == c:
        roster_c.append(moved)

    def rcount_prime(r: int) -> int:
        cnt = st.rcount[r]
        if prev is not None and prev.resource == r:
            cnt -= 1
        if moved.resource == r:
            cnt += 1
        return cnt

    cur2 = st.assign[s2] if s2 != s_moved else moved
    for y in roster_c:
        ry = rank_row[y.student]
        if ry is None or rs2 >= ry:
            continue
        if r2 != EMPTY_RESOURCE:
            if c not in m.regions[r2 - 1]:
                continue
            cnt = (
                rcount_prime(r2)
                + 1
                - (1 if cur2 is not None and cur2.resource == r2 else 0)
                - (1 if y.resource == r2 else 0)
            )
            if cnt > m.resource_quotas[r2 - 1]:
                continue
        if r2 == EMPTY_RESOURCE or y.resource == r2:
            return True
    return False


def reference_find_witness(m, st, x, clean_under_mu):
    """First contract dominating waste block x, or None: every student's
    preferred contracts at x's college, each re-checked under mu'."""
    s, c, _ = x
    for s2 in range(m.n_students):
        if s2 == s:
            limit = m.pref_position(s2, (x.college, x.resource))
        else:
            cur = st.assign[s2]
            limit = m.pref_position(
                s2, (cur.college, cur.resource) if cur is not None else None
            )
        prefs = m.preferences[s2]
        for pos in range(min(limit, len(prefs))):
            c2, r2 = prefs[pos]
            if c2 != c:
                continue
            xp = Contract(s2, c2, r2)
            if not clean_under_mu(xp):
                continue
            if reference_direct_envy_after_move(m, st, x, xp):
                # every witness demands exactly the dominated block's
                # (non-empty) resource, which the fast path relies on
                assert r2 == x.resource and r2 != EMPTY_RESOURCE, (x, xp)
                return xp
    return None


def reference_is_dominated(m, mu, x):
    st = _State(m, mu)

    def clean(xp):
        if _waste_class(m, st, xp) is not None:
            return False
        return not _has_direct_victim(xp, _envy_victims(m, st, xp))

    w = reference_find_witness(m, st, x, clean)
    return (w is not None, w)


def reference_audit(m, mu) -> BlockingReport:
    """audit as first written, with the original witness search."""
    _require_auditable(m, mu)
    st = _State(m, mu)
    counts = {RESOURCE: 0, SEAT: 0, DIRECT_ENVY: 0, INDIRECT_ENVY: 0}
    waste_witnesses, envy_witnesses = [], []
    waste_set, direct_set = set(), set()
    for s in range(m.n_students):
        cur = st.assign[s]
        prefs = m.preferences[s]
        limit = m.pref_position(
            s, (cur.college, cur.resource) if cur is not None else None
        )
        for pos in range(min(limit, len(prefs))):
            x = Contract(s, *prefs[pos])
            kind = _waste_class(m, st, x)
            if kind is not None:
                counts[kind] += 1
                waste_witnesses.append((x, kind))
                waste_set.add(x)
            victims = _envy_victims(m, st, x)
            if victims:
                direct = _has_direct_victim(x, victims)
                counts[DIRECT_ENVY if direct else INDIRECT_ENVY] += 1
                if direct:
                    direct_set.add(x)
                envy_witnesses.append((x, tuple(victims), direct))
    any_direct = bool(direct_set)
    weakly_stable = not any_direct and all(
        x.resource != EMPTY_RESOURCE
        and st.rcount[x.resource] == m.resource_quotas[x.resource - 1]
        for x, _kind in waste_witnesses
    )

    def clean(xp):
        return xp not in waste_set and xp not in direct_set

    direct_envy_stable = not any_direct and all(
        reference_find_witness(m, st, x, clean) is not None
        for x, _kind in waste_witnesses
    )
    return BlockingReport(
        counts=counts,
        total=sum(counts.values()),
        stable=not waste_witnesses and not envy_witnesses,
        envy_free=not envy_witnesses,
        direct_envy_free=not any_direct,
        non_wasteful=not waste_witnesses,
        seat_efficient=counts[SEAT] == 0,
        resource_efficient=counts[RESOURCE] == 0,
        weakly_stable=weakly_stable,
        direct_envy_stable=direct_envy_stable,
        waste_witnesses=tuple(waste_witnesses),
        envy_witnesses=tuple(envy_witnesses),
    )


def assert_audits_match(m, mu, seen):
    """audit and is_dominated agree with the references on mu; seen tallies
    the waste blocks by whether they are dominated."""
    rep = audit(m, mu)
    # report equality compares every field, both witness tuples included
    assert rep == reference_audit(m, mu)
    for x, _kind in rep.waste_witnesses:
        got = is_dominated(m, mu, x)
        assert got == reference_is_dominated(m, mu, x), (mu, x)
        seen[got[0]] += 1


def census_markets():
    """The bundled fixtures and a few small scarce-quota generated markets."""
    for name in fixture_names():
        yield load_fixture(name)
    cfg = GenConfig(
        n_students=6,
        n_colleges=2,
        n_resources=2,
        college_balance="down",
        resource_balance="down",
    )
    for seed in range(6):
        yield generate_market(cfg, seed=seed)


def test_audit_matches_the_reference_on_every_census_matching():
    seen = {True: 0, False: 0}
    matchings = 0
    for m in census_markets():
        for mu in enumerate_matchings(m):
            assert_audits_match(m, mu, seen)
            matchings += 1
    assert matchings > 2000
    assert seen[True] > 0 and seen[False] > 0


def test_audit_matches_the_reference_on_mechanism_outputs():
    seen = {True: 0, False: 0}
    for i, m in enumerate(differential_markets()):
        for name, mechanism in MECHANISMS.items():
            assert_audits_match(m, mechanism(m, seed=i).matching, seen)
    assert seen[True] > 0 and seen[False] > 0
