"""Seeded outputs pinned across code changes.

The golden digests are sha256 sums of `results_to_json` for one small
experiment per alignment regime, each running all six mechanisms, and of
`dumps_market` for generated markets of every regime and semi sampler, of
markets whose college quotas are split at random, and of one n=2000 market.
A change that moves one of them changes behaviour and must say so;
re-pinning a digest to get a green run is not allowed.

The differential tests hold all six mechanisms (`run_irc`, `run_imc`,
`run_idc`, `run_iuc`, `run_rsd`, `run_csd`), the grid sampler, whole
generated markets, the audit's domination-witness search, the
census's Pareto scan, the `Market` constructor's lookup tables and
`validate_market` to reference copies of their original loops, and
`dumps_market` to the `json.dumps` writer it replaced: same inputs, same
seeds, equal outputs. The references draw from numpy's `Generator` and run
on frozen copies of the engine and of the audit's per-contract checks, kept
in this file, so that a rewrite of the live helpers is checked, not
followed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from math import prod

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
    census,
    enumerate_matchings,
    fixture_names,
    generate_market,
    is_dominated,
    is_feasible,
    is_pareto_efficient,
    load_fixture,
    run_csd,
    run_experiment,
    run_idc,
    run_imc,
    run_irc,
    run_iuc,
    run_rsd,
    validate_market,
)
from capmatch import oracle
from capmatch.blocking import (
    DIRECT_ENVY,
    INDIRECT_ENVY,
    RESOURCE,
    SEAT,
    _audit_all,
    _require_auditable,
)
from capmatch._draws import Draws
from capmatch.cutoffs import CutoffProfile
from capmatch.experiments import aggregate, results_to_json, table_csv, table_text
from capmatch.generate import ALIGNMENTS, BALANCES, SEMI_SAMPLERS, _grid_order
from capmatch.market import EMPTY_RESOURCE, Market, dumps_market
from capmatch.mechanisms import RunTrace

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


# sha256 of (table_csv, table_text) over the aggregate of each golden config
TABLE_GOLDEN = {
    "none": (
        "8492cb5db728b7d9e6a00f308cf9f758384e0415cc5bf0875a1740b70b0ca2d1",
        "511adecb52b335c2549e1ba3bb2241dfc1e33311a614690070e8faa8e507aa2d",
    ),
    "student_semi": (
        "1ceed0b74095daa67684e758700b8f33d2295f0f80bba9cfe342243c408aaa9c",
        "5cb0ae5cd659255dc029685e16b50565b4038baa3b0291d09a8d15b238b500d3",
    ),
    "student_full": (
        "e5d732f3a5bf9996bb4a2996a285ea9ddf21a594b46bc1b2fe99cb05af07ad5a",
        "7230f8bf1692e322dca502f426e1f3510ed9a4ec0c2ab14a85dfeb53d8f2969a",
    ),
    "college_full": (
        "17a2bb7b7b9a39c27831d278ce2d96f73082b0a8b89258a395f8a19fff6daf59",
        "082da60e4ef4594a4a36e4ec905829e577a05777f8fbc9c81ef65f12f4b5d26e",
    ),
    "student_and_college_full": (
        "1602293f7b2f6fb9fe635c8368c098b96fed0700a6fe4fcbaf4a8c6c2e7de817",
        "cd148921b39fb3f8821591398a93bbaef18b84def6e92a608ab76f0ac1cd9d7a",
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("alignment", ALIGNMENTS)
def test_golden_results_digest(alignment):
    config = golden_config(alignment)
    results = run_experiment(config)
    assert sha256(results_to_json(config, results)) == GOLDEN[alignment]
    rows = aggregate(results)
    assert (sha256(table_csv(rows)), sha256(table_text(rows))) == TABLE_GOLDEN[
        alignment
    ]


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


# -- frozen copies of the engine and the audit's per-contract checks --------


class RefEngine:
    """_Engine with its feasibility test written out, as first written."""

    def __init__(self, m):
        self.m = m
        self.K = [[0] * (m.n_resources + 1) for _ in range(m.n_colleges)]
        self.assign = [None] * m.n_students
        self.ccount = [0] * m.n_colleges
        self.rcount = [0] * (m.n_resources + 1)
        self.moves = []

    def try_raise(self, c, rs):
        m = self.m
        row = self.K[c]
        v = row[rs[0]]
        s_star = m.priorities[c][v]
        pos_map = m._pref_pos[s_star]
        best_pos = None
        best_r = -1
        for r in rs:
            p = pos_map.get((c, r))
            if p is not None and (best_pos is None or p < best_pos):
                best_pos = p
                best_r = r
        cur = self.assign[s_star]
        if cur is None:
            cur_pos = len(m.preferences[s_star])
        else:
            cur_pos = pos_map[(cur.college, cur.resource)]
        if best_pos is not None and best_pos < cur_pos:
            at_c = cur is not None and cur.college == c
            ok = self.ccount[c] - (1 if at_c else 0) + 1 <= m.college_quotas[c]
            if ok and best_r != EMPTY_RESOURCE:
                if c not in m.regions[best_r - 1]:
                    ok = False
                else:
                    had = cur is not None and cur.resource == best_r
                    ok = (
                        self.rcount[best_r] - (1 if had else 0) + 1
                        <= m.resource_quotas[best_r - 1]
                    )
            if not ok:
                return False
            if cur is not None:
                self.ccount[cur.college] -= 1
                self.rcount[cur.resource] -= 1
            self.assign[s_star] = Contract(s_star, c, best_r)
            self.ccount[c] += 1
            self.rcount[best_r] += 1
        for r in rs:
            row[r] += 1
        self.moves.append((c, tuple(rs)))
        return True

    def finish(self, mechanism, seed) -> RunTrace:
        return RunTrace(
            mechanism=mechanism,
            seed=seed,
            moves=tuple(self.moves),
            matching=Matching(x for x in self.assign if x is not None),
            profile=CutoffProfile(self.K, self.m.n_students),
        )


def ref_coupled(row, r):
    if r != EMPTY_RESOURCE and row[r] == row[EMPTY_RESOURCE]:
        return (r, EMPTY_RESOURCE)
    return (r,)


class RefState:
    def __init__(self, m, mu):
        self.assign = [mu.student_contract(s) for s in range(m.n_students)]
        self.roster = [
            [x for x in sorted(mu.contracts) if x.college == c]
            for c in range(m.n_colleges)
        ]
        self.ccount = [len(roster) for roster in self.roster]
        self.rcount = [
            sum(x.resource == r for x in mu.contracts)
            for r in range(m.n_resources + 1)
        ]


def ref_waste_class(m, st, x):
    s, c, r = x
    cur = st.assign[s]
    at_c = cur is not None and cur.college == c
    if st.ccount[c] - (1 if at_c else 0) + 1 > m.college_quotas[c]:
        return None
    if r != EMPTY_RESOURCE:
        if c not in m.regions[r - 1]:
            return None
        had_r = cur is not None and cur.resource == r
        if st.rcount[r] - (1 if had_r else 0) + 1 > m.resource_quotas[r - 1]:
            return None
    return RESOURCE if at_c else SEAT


def ref_envy_victims(m, st, x):
    s, c, r = x
    rank_row = m._rank[c]
    rs = rank_row[s]
    if rs is None:
        return []
    cur = st.assign[s]
    out = []
    for y in st.roster[c]:
        ry = rank_row[y.student]
        if ry is None or rs >= ry:
            continue
        if r != EMPTY_RESOURCE:
            if c not in m.regions[r - 1]:
                continue
            cnt = (
                st.rcount[r]
                + 1
                - (1 if cur is not None and cur.resource == r else 0)
                - (1 if y.resource == r else 0)
            )
            if cnt > m.resource_quotas[r - 1]:
                continue
        out.append(y)
    return out


def ref_has_direct_victim(x, victims):
    if x.resource == EMPTY_RESOURCE:
        return bool(victims)
    return any(y.resource == x.resource for y in victims)


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
        draws = Draws(c * 100 + r)
        ref_rng = np.random.default_rng(c * 100 + r)
        for _ in range(3):
            for weights in (quality, None):
                live_weights = None if weights is None else range(1, c + 1)
                got = _grid_order(cfg, draws, live_weights)
                assert got == reference_grid_order(cfg, ref_rng, weights), (c, r)
                checked += 1
        assert draws.random() == ref_rng.random(), (c, r)
        assert draws.integers(1000) == ref_rng.integers(1000), (c, r)
    assert checked == 360


def reference_unaligned_order(cfg, rng):
    """_unaligned_order as first written: numpy shuffles of the slot array
    and of each college's resources, popped into (college, resource) pairs."""
    c, r = cfg.n_colleges, cfg.n_resources
    slots = np.repeat(np.arange(c), r + 1)
    rng.shuffle(slots)
    queues = []
    for ci in range(c):
        res = [int(x) for x in rng.permutation(np.arange(1, r + 1))]
        res.append(0)
        queues.append(res[::-1])
    return [(int(ci), queues[ci].pop()) for ci in slots]


def reference_generate_market(cfg, seed):
    """generate_market as it drew through numpy's `Generator`: quotas,
    regions and priorities from Generator methods, then each student's order
    from the grid or unaligned reference above and its truncation from
    rng.integers. Also whether a 32-bit half was pending when the lists
    began."""
    n, c, r = cfg.n_students, cfg.n_colleges, cfg.n_resources
    budget = {"balanced": n, "up": 2 * n, "down": n // 2}
    rng = np.random.default_rng(seed)
    total = budget[cfg.college_balance]
    if cfg.quota_split_scheme == "equal":
        base, rem = divmod(total, c)
        college_quotas = [base + (1 if i < rem else 0) for i in range(c)]
    else:
        cuts = np.sort(rng.choice(total - 1, size=c - 1, replace=False)) + 1
        college_quotas = np.diff(np.concatenate(([0], cuts, [total]))).tolist()
    if cfg.region_scheme == "all":
        regions = [list(range(c)) for _ in range(r)]
    elif cfg.region_scheme == "partition":
        chunks = np.array_split(rng.permutation(c), r) if r else []
        regions = [sorted(chunk.tolist()) for chunk in chunks]
    else:
        k = int(cfg.region_scheme.split(":", 1)[1])
        regions = [
            sorted(rng.choice(c, size=k, replace=False).tolist()) for _ in range(r)
        ]
    if cfg.alignment in ("college_full", "student_and_college_full"):
        priorities = [list(range(n - 1, -1, -1)) for _ in range(c)]
    else:
        priorities = [rng.permutation(n).tolist() for _ in range(c)]
    pending = bool(rng.bit_generator.state["has_uint32"])
    weights = None
    if cfg.alignment == "student_semi" and cfg.semi_sampler == "quality":
        weights = np.arange(1, c + 1, dtype=float)
    preferences = []
    for _ in range(n):
        if cfg.alignment in ("none", "college_full"):
            order = reference_unaligned_order(cfg, rng)
        else:
            order = reference_grid_order(cfg, rng, weights)
        if cfg.truncation == "uniform":
            order = order[: int(rng.integers(len(order) + 1))]
        preferences.append(order)
    market = Market(
        n_students=n,
        college_quotas=college_quotas,
        resource_quotas=[budget[cfg.resource_balance]] * r,
        regions=regions,
        priorities=priorities,
        preferences=preferences,
    )
    return market, pending


# (n, C, R, region scheme, quota split): one college, no resources (under
# "all" and "partition"), eight resources, and every region scheme and split
GENERATED_SHAPES = [
    (8, 1, 2, "all", "equal"),
    (10, 3, 0, "all", "random"),
    (7, 4, 0, "partition", "random"),
    (12, 9, 8, "random:4", "random"),
    (20, 5, 3, "partition", "equal"),
    (30, 4, 2, "random:2", "random"),
    (25, 10, 5, "all", "equal"),
]


def assert_generated_markets_match_the_reference(regimes):
    """generate_market against reference_generate_market on every shape,
    (alignment, semi sampler) regime and truncation, at four seeds."""
    pending_seen = {False: 0, True: 0}
    for shape, (alignment, sampler), truncation, seed in itertools.product(
        GENERATED_SHAPES, regimes, ("uniform", "none"), range(4)
    ):
        n, c, r, scheme, split = shape
        cfg = GenConfig(
            n_students=n,
            n_colleges=c,
            n_resources=r,
            alignment=alignment,
            region_scheme=scheme,
            quota_split_scheme=split,
            truncation=truncation,
            semi_sampler=sampler,
        )
        expected, pending = reference_generate_market(cfg, seed)
        got = dumps_market(generate_market(cfg, seed=seed))
        assert got == dumps_market(expected), (cfg, seed)
        pending_seen[pending] += 1
    # the lists must start right after the priorities in both stream states:
    # on a fresh word, and on the high half of a word the priorities began
    assert min(pending_seen.values()) >= 10, pending_seen


def test_unaligned_preferences_match_the_numpy_reference():
    assert_generated_markets_match_the_reference(
        [("none", "quality"), ("college_full", "quality")]
    )


def test_aligned_preferences_match_the_numpy_reference():
    assert_generated_markets_match_the_reference(
        [
            ("student_semi", "quality"),
            ("student_semi", "uniform"),
            ("student_full", "quality"),
            ("student_and_college_full", "quality"),
        ]
    )


# the dictators_2000 benchmark shape: one n=2000, C=20, R=5 unaligned market
DICTATORS_MARKET_GOLDEN = (
    "724daeeb9f6b48470def01ea75bc90fa0605ab8d2b987f41069f1d9087f0f8c3"
)


def test_golden_market_digest_at_n_2000():
    cfg = GenConfig(n_students=2000, n_colleges=20, n_resources=5)
    text = dumps_market(generate_market(cfg, seed=2025))
    assert sha256(text) == DICTATORS_MARKET_GOLDEN


# the market shapes with college quotas split at random, under a college
# budget of |S| and of 2|S|, in an unaligned and an aligned regime
RANDOM_SPLIT_MARKET_GOLDEN = (
    "cef004e178c1676d1ac436750f4a8b89a31e580fa0573cbc257b84b9fa710105"
)


def test_golden_market_digest_with_a_random_quota_split():
    h = hashlib.sha256()
    for (n, c, r, scheme), balance, alignment in itertools.product(
        MARKET_SHAPES, ("balanced", "up"), ("none", "student_full")
    ):
        cfg = GenConfig(
            n_students=n,
            n_colleges=c,
            n_resources=r,
            alignment=alignment,
            college_balance=balance,
            region_scheme=scheme,
            quota_split_scheme="random",
        )
        h.update(dumps_market(generate_market(cfg, seed=2025)).encode())
    assert h.hexdigest() == RANDOM_SPLIT_MARKET_GOLDEN


def reference_irc(m, seed=None) -> RunTrace:
    """run_irc as first written: the candidate list rebuilt on every draw."""
    rng = np.random.default_rng(seed)
    eng = RefEngine(m)
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
        if eng.try_raise(c, ref_coupled(eng.K[c], r)):
            failed.clear()
        else:
            failed.add((c, r))
    return eng.finish("irc", seed)


def reference_imc_college_step(eng, c, rng) -> bool:
    """_imc_college_step as first written: the subset lists rebuilt per visit."""
    m = eng.m
    row = eng.K[c]
    n = m.n_students
    values = sorted({val for val in row if val < n})
    for v in values:
        members = [r for r in range(len(row)) if row[r] == v]
        if EMPTY_RESOURCE in members:
            base = [r for r in members if r != EMPTY_RESOURCE]
            for size in range(len(base) + 1, 0, -1):
                combos = list(itertools.combinations(base, size - 1))
                for i in rng.permutation(len(combos)):
                    rs = (EMPTY_RESOURCE,) + combos[int(i)]
                    if eng.try_raise(c, rs):
                        return True
        else:
            for size in range(len(members), 0, -1):
                combos = list(itertools.combinations(members, size))
                for i in rng.permutation(len(combos)):
                    if eng.try_raise(c, combos[int(i)]):
                        return True
    return False


def reference_imc(m, seed=None) -> RunTrace:
    """run_imc as first written, drawing from numpy's Generator."""
    rng = np.random.default_rng(seed)
    eng = RefEngine(m)
    while True:
        changed = False
        for ci in rng.permutation(m.n_colleges):
            if reference_imc_college_step(eng, int(ci), rng):
                changed = True
        if not changed:
            break
    return eng.finish("imc", seed)


def reference_idc(m, seed=None) -> RunTrace:
    """run_idc as first written, drawing from numpy's Generator."""
    rng = np.random.default_rng(seed)
    eng = RefEngine(m)
    n = m.n_students
    entries = [
        (c, r) for c in range(m.n_colleges) for r in range(m.n_resources + 1)
    ]
    while True:
        changed = False
        for idx in rng.permutation(len(entries)):
            c, r = entries[int(idx)]
            while eng.K[c][r] < n and eng.try_raise(c, ref_coupled(eng.K[c], r)):
                changed = True
        if not changed:
            break
    return eng.finish("idc", seed)


def reference_iuc(m, seed=None) -> RunTrace:
    """run_iuc as first written, drawing from numpy's Generator."""
    rng = np.random.default_rng(seed)
    eng = RefEngine(m)
    n = m.n_students
    all_rs = tuple(range(m.n_resources + 1))
    while True:
        changed = False
        for ci in rng.permutation(m.n_colleges):
            c = int(ci)
            if eng.K[c][EMPTY_RESOURCE] < n and eng.try_raise(c, all_rs):
                changed = True
        if not changed:
            break
    return eng.finish("iuc", seed)


def reference_rsd(m, seed=None) -> RunTrace:
    """run_rsd as first written: the order drawn from numpy's Generator, the
    capacity test written out."""
    rng = np.random.default_rng(seed)
    order = [int(s) for s in rng.permutation(m.n_students)]
    ccount = [0] * m.n_colleges
    rcount = [0] * (m.n_resources + 1)
    granted: list[Contract] = []
    for s in order:
        for c, r in m.preferences[s]:
            if ccount[c] < m.college_quotas[c] and (
                r == EMPTY_RESOURCE
                or (c in m.regions[r - 1] and rcount[r] < m.resource_quotas[r - 1])
            ):
                granted.append(Contract(s, c, r))
                ccount[c] += 1
                rcount[r] += 1
                break
    return RunTrace(
        mechanism="rsd",
        seed=seed,
        moves=tuple(granted),
        matching=Matching(granted),
        order=tuple(order),
    )


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
    "mechanism, reference",
    [
        (run_irc, reference_irc),
        (run_imc, reference_imc),
        (run_idc, reference_idc),
        (run_iuc, reference_iuc),
        (run_rsd, reference_rsd),
        (run_csd, reference_csd),
    ],
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
    st = RefState(m, mu)

    def clean(xp):
        if ref_waste_class(m, st, xp) is not None:
            return False
        return not ref_has_direct_victim(xp, ref_envy_victims(m, st, xp))

    w = reference_find_witness(m, st, x, clean)
    return (w is not None, w)


def reference_audit(m, mu) -> BlockingReport:
    """audit as first written, with the original witness search."""
    _require_auditable(m, mu)
    st = RefState(m, mu)
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
            kind = ref_waste_class(m, st, x)
            if kind is not None:
                counts[kind] += 1
                waste_witnesses.append((x, kind))
                waste_set.add(x)
            victims = ref_envy_victims(m, st, x)
            if victims:
                direct = ref_has_direct_victim(x, victims)
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


def partial_priority_markets(count=60):
    """Random small markets whose college lists each leave students out, so
    that a candidate's college may not rank her."""
    rng = np.random.default_rng(5)
    for _ in range(count):
        n, c, r = (int(x) for x in rng.integers((2, 1, 0), (6, 4, 3)))
        pairs = [(cc, rr) for cc in range(c) for rr in range(r + 1)]
        yield Market(
            n,
            rng.integers(1, 3, size=c).tolist(),
            rng.integers(1, 3, size=r).tolist(),
            [rng.permutation(c)[: rng.integers(1, c + 1)] for _ in range(r)],
            [rng.permutation(n)[: rng.integers(0, n)] for _ in range(c)],
            [
                [pairs[i] for i in rng.permutation(len(pairs))[: rng.integers(0, 5)]]
                for _ in range(n)
            ],
        )


def census_markets():
    """The bundled fixtures, a few small scarce-quota generated markets and
    markets with partial priority lists."""
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
    yield from partial_priority_markets()


def test_audit_matches_the_reference_on_every_census_matching():
    seen = {True: 0, False: 0}
    matchings = 0
    for m in census_markets():
        for mu in enumerate_matchings(m):
            assert_audits_match(m, mu, seen)
            matchings += 1
    assert matchings > 2000
    assert seen[True] > 0 and seen[False] > 0


def test_a_census_audits_each_matching_as_a_lone_audit_does():
    """A census's scans share one table of contracts and witnesses; no
    report may depend on it. Batches in reversed and shuffled order put a
    shallow stop after a deep one and the reverse, so a row built deep for
    one matching cannot mislead a later one."""
    rng = np.random.default_rng(20)
    for m in census_markets():
        result = census(m)
        alone = [audit(m, mu) for mu in result.matchings]
        assert result.reports == tuple(alone)
        n = len(alone)
        for order in (range(n - 1, -1, -1), rng.permutation(n).tolist()):
            batch = _audit_all(m, [result.matchings[i] for i in order])
            assert batch == [alone[i] for i in order]


def test_audit_matches_the_reference_on_mechanism_outputs():
    seen = {True: 0, False: 0}
    for i, m in enumerate(differential_markets()):
        for name, mechanism in MECHANISMS.items():
            assert_audits_match(m, mechanism(m, seed=i).matching, seen)
    assert seen[True] > 0 and seen[False] > 0


# -- reference copy of the original pairwise Pareto scan ----------------------


def reference_dominates(m, a, b) -> bool:
    """Every student weakly prefers a to b and someone strictly does."""
    strict = False
    for s in range(m.n_students):
        xa = a.student_contract(s)
        xb = b.student_contract(s)
        pa = m.pref_position(s, (xa.college, xa.resource) if xa else None)
        pb = m.pref_position(s, (xb.college, xb.resource) if xb else None)
        if pa > pb:
            return False
        if pa < pb:
            strict = True
    return strict


def reference_pareto(m, matchings) -> tuple[int, ...]:
    """Indices of the matchings that no other matching dominates."""
    return tuple(
        i
        for i, mu in enumerate(matchings)
        if not any(
            j != i and reference_dominates(m, matchings[j], mu)
            for j in range(len(matchings))
        )
    )


def reference_is_pareto_efficient(m, mu) -> bool:
    return not any(
        other != mu and reference_dominates(m, other, mu)
        for other in enumerate_matchings(m)
    )


# generated markets whose unpruned choice tree is larger are left out, so
# that the quadratic reference stays within a few seconds
PARETO_LEAVES = 5000


def pareto_markets():
    """(shape, market): the fixtures, then small generated markets of every
    alignment, balance and n 1-6, with C 1-3 and R 0-2 cycling."""
    for name in fixture_names():
        yield name, load_fixture(name)
    rng = np.random.default_rng(8)
    combos = itertools.product(ALIGNMENTS, ("down", "balanced", "up"), range(1, 7))
    for k, (alignment, balance, n) in enumerate(combos):
        for j in range(3):
            shape = (alignment, balance, n, 1 + (k + j) % 3, (k + 2 * j) % 3)
            cfg = GenConfig(
                n_students=n,
                n_colleges=shape[3],
                n_resources=shape[4],
                alignment=alignment,
                college_balance=balance,
                resource_balance=balance,
            )
            try:
                m = generate_market(cfg, seed=int(rng.integers(1 << 48)))
            except ValueError:
                continue  # a "down" budget can starve the split
            if prod(len(p) + 1 for p in m.preferences) <= PARETO_LEAVES:
                yield shape, m


@pytest.fixture(scope="module")
def pareto_censuses():
    return [(shape, m, census(m)) for shape, m in pareto_markets()]


def test_census_pareto_set_matches_the_pairwise_scan(pareto_censuses):
    generated = [shape for shape, _, _ in pareto_censuses if isinstance(shape, tuple)]
    assert len(generated) >= 150
    axes = (ALIGNMENTS, BALANCES, range(1, 7), range(1, 4), range(3))
    for i, axis in enumerate(axes):
        assert {shape[i] for shape in generated} == set(axis)
    for shape, m, result in pareto_censuses:
        matchings = list(result.matchings)
        assert result.pareto_efficient == reference_pareto(m, matchings), shape


def test_census_is_the_same_over_several_blocks(pareto_censuses, monkeypatch):
    monkeypatch.setattr(oracle, "_BLOCK_CELLS", 64)
    split = 0
    for shape, m, result in pareto_censuses:
        assert census(m) == result, shape
        split += len(result.matchings) > 8  # more than one block of rows
    assert split >= 50


# sha256 over every census of pareto_markets(): each index set, and each
# report's counts and flags
CENSUS_GOLDEN = "d015f42aac4bb58d2a2f5e58974fd9b872e4b0cfb0d687aecf047bbc43b00bcd"


def test_census_digest(pareto_censuses):
    h = hashlib.sha256()
    for _, _, result in pareto_censuses:
        doc = {
            name: getattr(result, name)
            for name in (
                "stable",
                "envy_free",
                "non_wasteful",
                "weakly_stable",
                "direct_envy_stable",
                "pareto_efficient",
            )
        }
        doc["reports"] = [rep.to_dict() for rep in result.reports]
        h.update(json.dumps(doc, sort_keys=True).encode())
    assert h.hexdigest() == CENSUS_GOLDEN


def test_is_pareto_efficient_matches_the_reference():
    # (enumerated, efficient) -> matchings checked
    checked = dict.fromkeys(itertools.product((True, False), repeat=2), 0)
    for name in fixture_names():
        m = load_fixture(name)
        mus = enumerate_matchings(m)
        # two matchings the enumeration never yields. One adds a contract
        # its student did not list to an efficient matching that leaves her
        # unmatched, so only "unlisted is worse than unmatched" makes it
        # dominated (prop8_market2's students list every pair).
        unlisted = [
            Matching([*nu.contracts, Contract(s, c, r)])
            for nu in mus
            for s in range(m.n_students)
            for c in range(m.n_colleges)
            for r in range(m.n_resources + 1)
            if nu.student_contract(s) is None
            and (c, r) not in m.preferences[s]
            and reference_is_pareto_efficient(m, nu)
        ][:1]
        # The other seats more students at one college than its quota.
        over = []
        for c in range(m.n_colleges):
            seated = [
                Contract(s, *next(p for p in m.preferences[s] if p[0] == c))
                for s in range(m.n_students)
                if any(p[0] == c for p in m.preferences[s])
            ]
            if len(seated) > m.college_quotas[c]:
                over = [Matching(seated)]
                assert not is_feasible(m, over[0]), name
                break
        for mu in [*mus, *unlisted, *over]:
            got = is_pareto_efficient(m, mu)
            assert got == reference_is_pareto_efficient(m, mu), (name, mu)
            checked[mu in mus, got] += 1
    assert min(checked.values()) > 0


# -- the market writer, the constructor's tables and validate_market, against
# frozen copies of the json.dumps writer and of the original pair-by-pair loops


def reference_market_to_dict(m) -> dict:
    return {
        "students": m.n_students,
        "colleges": [{"quota": q} for q in m.college_quotas],
        "resources": [
            {"quota": q, "region": sorted(reg)}
            for q, reg in zip(m.resource_quotas, m.regions)
        ],
        "priorities": [list(p) for p in m.priorities],
        "preferences": [[[c, r] for (c, r) in prefs] for prefs in m.preferences],
    }


def reference_dumps_market(m) -> str:
    return json.dumps(reference_market_to_dict(m), indent=2, sort_keys=True) + "\n"


def reference_tables(m):
    """The constructor's _rank, non-permutation list and _pref_pos, built
    entry by entry as the original constructor built them."""
    ranks = []
    for plist in m.priorities:
        row = [None] * m.n_students
        for pos, s in enumerate(plist):
            if 0 <= s < m.n_students and row[s] is None:
                row[s] = pos + 1
        ranks.append(row)
    non_permutation = tuple(
        c
        for c, (plist, row) in enumerate(zip(m.priorities, ranks))
        if len(plist) != m.n_students or None in row
    )
    pref_pos = []
    for prefs in m.preferences:
        pos_map = {}
        for pos, pair in enumerate(prefs):
            if pair not in pos_map:
                pos_map[pair] = pos
        pref_pos.append(pos_map)
    return ranks, non_permutation, pref_pos


def reference_validate_market(m) -> list[tuple[str, str]]:
    _, non_permutation, pref_pos = reference_tables(m)
    out = []
    for c, q in enumerate(m.college_quotas):
        if q < 1:
            out.append(("error", f"college {c} has quota {q} (< 1)"))
    for i, q in enumerate(m.resource_quotas):
        if q < 1:
            out.append(("error", f"resource {i + 1} has quota {q} (< 1)"))
    for i, reg in enumerate(m.regions):
        if not reg:
            out.append(("error", f"resource {i + 1} has an empty region"))
        for c in reg:
            if not (0 <= c < m.n_colleges):
                out.append(
                    ("error", f"resource {i + 1} region names unknown college {c}")
                )
    for c in non_permutation:
        out.append(
            (
                "error",
                f"college {c} priority list is not a permutation of the "
                f"{m.n_students} students",
            )
        )
    for s, prefs in enumerate(m.preferences):
        seen = set()
        for c, r in prefs:
            if not (0 <= c < m.n_colleges):
                out.append(("error", f"student {s} lists unknown college {c}"))
                continue
            if not (0 <= r <= m.n_resources):
                out.append(("error", f"student {s} lists unknown resource {r}"))
                continue
            if (c, r) in seen:
                out.append(("error", f"student {s} lists ({c},{r}) twice"))
            seen.add((c, r))
        for pos, (c, r) in enumerate(prefs):
            if r == EMPTY_RESOURCE:
                continue
            if not (0 <= c < m.n_colleges) or not (0 <= r <= m.n_resources):
                continue
            tail_pos = pref_pos[s].get((c, EMPTY_RESOURCE))
            if tail_pos is None or tail_pos <= pos:
                out.append(
                    (
                        "warning",
                        f"student {s} lists ({c},{r}) without ({c},0) after it",
                    )
                )
                break
    return out


# (n, C, R) per writer size; the n=2000 shape is the dictators_2000 one
WRITER_SHAPES = [(7, 3, 2), (100, 10, 5), (2000, 20, 5)]


@pytest.fixture(scope="module")
def regime_markets():
    """One market of every regime at each writer size, and three with full
    lists and random regions at n=100."""
    markets = [
        generate_market(
            GenConfig(n_students=n, n_colleges=c, n_resources=r, alignment=a),
            seed=31 + i,
        )
        for i, ((n, c, r), a) in enumerate(itertools.product(WRITER_SHAPES, ALIGNMENTS))
    ]
    cfg = GenConfig(truncation="none", region_scheme="random:3")
    return [*markets, *(generate_market(cfg, seed=s) for s in range(3))]


def bad_markets():
    """Hand-built markets, each breaking the rules or the presence convention
    in one way, then a few that break several at once."""
    ok_priorities = [[0, 1, 2]] * 2

    def three_students(*prefs):
        return Market(3, [1, 2], [1, 2], [[0], [0, 1]], ok_priorities, list(prefs))

    full = [(0, 1), (0, 0), (1, 2), (1, 0)]
    yield three_students([(0, 1), (0, 0), (0, 1)], full, [])  # duplicate pair
    yield three_students(full, [(1, 0), (0, 0), (1, 0)], [])  # duplicate (c, 0)
    yield three_students(full, [(5, 0), (0, 0)], [(-1, 0)])  # unknown college
    yield three_students([(0, 3), (0, 0)], full, [(1, -1)])  # unknown resource
    yield three_students([(7, 9), (0, 2)], [(2, 0), (-1, -1)], full)  # both unknown
    yield three_students([(0, 1), (1, 0)], full, [])  # presence at the first pair
    yield three_students(full, [(1, 0), (1, 2), (0, 0)], [])  # at a later pair
    yield three_students([(0, 0), (0, 1)], [(1, 1), (1, 2), (1, 0), (0, 2)], full)
    yield Market(2, [0, -1, 1], [0, -2], [[0], [2]], [[0, 1]] * 3, [[], []])
    yield Market(2, [1], [1, 1], [[], [0, 4, -1]], [[0, 1]], [[(0, 0)], []])
    yield Market(
        3, [1, 1, 1, 1], [], [], [[0, 0, 1], [0, 1], [2, 1, 0, 2], [1, 3, 0]],
        [[(0, 0)], [(1, 0)], [(2, 0)]],
    )
    # several faults on one student, in list order, then a later presence break
    yield three_students(
        [(0, 1), (0, 0), (0, 1), (9, 1), (1, 2), (1, 2), (0, 7), (1, 0)],
        [(1, 2), (0, 0), (1, 0), (1, 2), (1, 1)],
        [(1, 1), (0, 1), (0, 0), (1, 0), (0, 0)],
    )


def random_bad_markets(count=300):
    """Small markets with ids drawn a little outside their ranges, repeated
    pairs and short or repeated priority lists."""
    rng = np.random.default_rng(11)
    for _ in range(count):
        n, c, r = (int(x) for x in rng.integers(1, 5, size=3))
        quotas = [int(q) for q in rng.integers(0, 3, size=c)]
        regions = [
            sorted({int(x) for x in rng.integers(-1, c + 1, size=rng.integers(0, 3))})
            for _ in range(r)
        ]
        priorities = [
            [int(s) for s in rng.permutation(n)]
            if rng.random() < 0.7
            else [int(s) for s in rng.integers(-1, n + 1, size=rng.integers(0, n + 2))]
            for _ in range(c)
        ]
        preferences = [
            [
                (int(rng.integers(-1, c + 1)), int(rng.integers(-1, r + 2)))
                for _ in range(rng.integers(0, 7))
            ]
            for _ in range(n)
        ]
        yield Market(n, quotas, [int(q) for q in rng.integers(0, 3, size=r)],
                     regions, priorities, preferences)


def edge_markets():
    """No students, one college, no resources, empty lists."""
    yield Market(0, [1], [], [], [[]], [])
    yield Market(2, [1], [], [], [[1, 0]], [[], [(0, 0)]])
    yield Market(3, [2], [1, 1], [[0], [0]], [[2, 0, 1]], [[], [], []])


def test_dumps_market_matches_the_json_dumps_reference(regime_markets):
    sizes = set()
    markets = [
        *(load_fixture(name) for name in fixture_names()),
        *regime_markets,
        *bad_markets(),
        *edge_markets(),
    ]
    for m in markets:
        assert dumps_market(m) == reference_dumps_market(m), m
        sizes.add(m.n_students)
    assert {7, 100, 2000} <= sizes


def test_validate_market_matches_the_pair_by_pair_reference(regime_markets):
    severities = {"error": 0, "warning": 0}
    markets = [
        *(load_fixture(name) for name in fixture_names()),
        *regime_markets,
        *bad_markets(),
        *random_bad_markets(),
        *edge_markets(),
    ]
    for m in markets:
        got = validate_market(m)
        assert got == reference_validate_market(m), m
        ranks, non_permutation, pref_pos = reference_tables(m)
        assert (m._rank, m._non_permutation_priorities, m._pref_pos) == (
            ranks,
            non_permutation,
            pref_pos,
        ), m
        for severity, _ in got:
            severities[severity] += 1
    assert min(severities.values()) > 100, severities
