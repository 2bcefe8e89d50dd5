"""Mechanism runs: traces, invariants, and the known order-sensitivity cases."""

import numpy as np
import pytest

from capmatch import (
    MECHANISMS,
    MECHANISM_ORDER,
    Contract,
    Market,
    Matching,
    audit,
    college_proposing_da,
    is_feasible,
    is_individually_rational,
    is_optimal,
    load_fixture,
    replay_trace,
    run_csd,
    run_idc,
    run_imc,
    run_irc,
    run_iuc,
    run_rsd,
)
from capmatch.cutoffs import induced_matching
from capmatch.generate import GenConfig, generate_market
from capmatch.mechanisms import _Engine


def small_random_markets(n=25, seed=11):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        cfg = GenConfig(
            n_students=int(rng.integers(2, 8)),
            n_colleges=int(rng.integers(1, 4)),
            n_resources=int(rng.integers(0, 3)),
            college_balance=("balanced", "up", "down")[int(rng.integers(3))],
        )
        try:
            out.append(generate_market(cfg, seed=int(rng.integers(1 << 48))))
        except ValueError:
            continue  # a "down" budget can starve the split
    return out


def test_mechanism_registry():
    assert MECHANISM_ORDER == ("irc", "imc", "idc", "iuc", "rsd", "csd")
    assert set(MECHANISMS) == set(MECHANISM_ORDER)


def test_every_run_is_feasible_rational_and_replayable():
    for i, m in enumerate(small_random_markets()):
        for name in MECHANISM_ORDER:
            tr = MECHANISMS[name](m, seed=i)
            assert tr.mechanism == name and tr.seed == i
            assert is_feasible(m, tr.matching)
            assert is_individually_rational(m, tr.matching)
            assert replay_trace(m, tr) == tr.matching, (name, i)


def test_same_seed_same_trace():
    m = load_fixture("prop4")
    for name in MECHANISM_ORDER:
        a = MECHANISMS[name](m, seed=123)
        b = MECHANISMS[name](m, seed=123)
        assert a.moves == b.moves
        assert a.matching == b.matching
        assert MECHANISMS[name](m, seed=124).seed != a.seed


def test_cutoff_runs_end_at_an_optimal_profile():
    # the three contract-capable mechanisms push until no raise is feasible;
    # the uniform one stops earlier by design and is checked separately
    for i, m in enumerate(small_random_markets(n=15, seed=3)):
        for name in ("irc", "imc", "idc"):
            tr = MECHANISMS[name](m, seed=i)
            assert induced_matching(m, tr.profile) == tr.matching
            assert is_optimal(m, tr.profile), (name, i)
            assert audit(m, tr.matching).direct_envy_stable, (name, i)


def test_uniform_runs_are_envy_free_and_resource_efficient():
    for i, m in enumerate(small_random_markets(n=15, seed=5)):
        tr = run_iuc(m, seed=i)
        # one scalar per college: all of its rows sit at a common height
        for row in tr.profile.to_lists():
            assert len(set(row)) == 1
        rep = audit(m, tr.matching)
        assert rep.envy_free and rep.resource_efficient, i


# seed -> outcome maps on the order-sensitive two-student market, where
# raising the (c0, r) gate first locks s0 into her second choice and leaves
# the unique stable matching unreachable for the rest of the run
LOCK_IN = Contract(0, 0, 1)
STABLE = Contract(1, 1, 1)
ORDER_SENSITIVITY = {
    "irc": {"bad": (1, 6, 8, 9), "good": (0, 2, 3, 4, 5, 7)},
    "imc": {"bad": (0, 1, 2, 7, 9), "good": (3, 4, 5, 6, 8)},
    "idc": {"bad": (0, 1, 7), "good": (2, 3, 4, 5, 6, 8, 9)},
    "iuc": {"bad": (0, 1, 2, 7, 9), "good": (3, 4, 5, 6, 8)},
}


def test_processing_order_decides_the_outcome():
    m = load_fixture("prop8_market1")
    cen_stable = {Matching([STABLE])}
    for name, buckets in ORDER_SENSITIVITY.items():
        for seed in buckets["bad"]:
            mu = MECHANISMS[name](m, seed=seed).matching
            assert mu == Matching([LOCK_IN]), (name, seed)
            assert Matching([LOCK_IN]) not in cen_stable
        for seed in buckets["good"]:
            mu = MECHANISMS[name](m, seed=seed).matching
            assert mu == Matching([STABLE]), (name, seed)
    # both lock-in and stable outcomes audit direct-envy stable; only the
    # stable one is actually stable
    assert not audit(m, Matching([LOCK_IN])).stable
    assert audit(m, Matching([LOCK_IN])).direct_envy_stable
    assert audit(m, Matching([STABLE])).stable


def test_max_cutoffs_scan_all_value_levels():
    """Regression: a run must not stop at the lowest tied level when only a
    raise at a higher level is feasible.

    Three students, one college with three seats, one resource unit. After
    the top student takes the unit, the resource row is pinned while the
    plain row can and must keep rising to admit the others.
    """
    m = Market(
        n_students=3,
        college_quotas=[3],
        resource_quotas=[1],
        regions=[[0]],
        priorities=[[0, 1, 2]],
        preferences=[
            [(0, 1)],
            [(0, 1), (0, 0)],
            [(0, 0)],
        ],
    )
    want = Matching([Contract(0, 0, 1), Contract(1, 0, 0), Contract(2, 0, 0)])
    for seed in range(20):
        tr = run_imc(m, seed=seed)
        assert tr.matching == want, seed
        assert is_optimal(m, tr.profile)


def test_imc_draws_only_when_a_level_offers_a_choice(monkeypatch):
    # a one-item shuffle reads no word, so IMC skips it; the traces are held
    # to the drawing reference in tests/test_golden.py
    import capmatch.mechanisms as mech

    lengths = []

    class Counting(mech.Draws):
        def permutation(self, n):
            lengths.append(n)
            return super().permutation(n)

    monkeypatch.setattr(mech, "Draws", Counting)
    for seed in range(5):
        m = generate_market(GenConfig(n_students=30, n_colleges=4), seed=seed)
        run_imc(m, seed=seed)
    assert lengths and min(lengths) >= 2


def test_zero_resource_markets_reduce_to_deferred_acceptance():
    m = load_fixture("prop8_market2")
    da = college_proposing_da(m)
    assert sorted(da.contracts) == [Contract(0, 0, 0), Contract(1, 1, 0)]
    for name in ("irc", "imc", "idc", "iuc"):
        for seed in range(10):
            assert MECHANISMS[name](m, seed=seed).matching == da, (name, seed)
    assert audit(m, da).stable


RUNNERS = {**MECHANISMS, "college_proposing_da": college_proposing_da}


@pytest.mark.parametrize("run", RUNNERS.values(), ids=RUNNERS)
def test_a_priority_list_that_is_no_permutation_is_refused(run):
    # college 1 lists student 1 twice and student 0 never; college 2 is short
    m = Market(2, [1, 1, 1], [], [], [[0, 1], [1, 1], [0]], [[(0, 0)], [(1, 0)]])
    message = "^college 1 priority list is not a permutation$"
    with pytest.raises(ValueError, match=message):
        run(m)


def test_deferred_acceptance_rejects_resource_markets():
    with pytest.raises(ValueError):
        college_proposing_da(load_fixture("example1"))


def _raise(eng, c, rs):
    """One engine raise of college c's entries rs, which sit at one value."""
    s = eng.m.priorities[c][eng.K[c][rs[0]]]
    return eng.try_raise(c, rs, s, eng.pos[s])


def _held(eng):
    return eng.finish("irc", None).matching


def test_a_raise_that_moves_a_unit_between_colleges_frees_it():
    # one unit, usable at both colleges; student 0 holds it at college 0 and
    # then becomes eligible for her favorite, college 1 with the unit
    m = Market(
        n_students=1,
        college_quotas=[1, 1],
        resource_quotas=[1],
        regions=[[0, 1]],
        priorities=[[0], [0]],
        preferences=[[(1, 1), (0, 1)]],
    )
    eng = _Engine(m)
    assert _raise(eng, 0, (1, 0))
    assert _held(eng) == Matching([Contract(0, 0, 1)])
    assert eng.ccount == [1, 0] and eng.rcount == [0, 1]
    assert _raise(eng, 1, (1, 0))
    assert _held(eng) == Matching([Contract(0, 1, 1)])
    assert eng.held == [0] and eng.entry == [1 * 2 + 1]
    assert eng.ccount == [0, 1] and eng.rcount == [0, 1]


def test_a_failed_raise_changes_nothing():
    # student 1 takes the one unit at college 1; student 0 sits at college
    # 0 without it, and the unit at college 0, her favorite, cannot follow
    m = Market(
        n_students=2,
        college_quotas=[1, 1],
        resource_quotas=[1],
        regions=[[0, 1]],
        priorities=[[0, 1], [1, 0]],
        preferences=[[(0, 1), (0, 0)], [(1, 1)]],
    )
    eng = _Engine(m)
    assert _raise(eng, 1, (1, 0)) and _raise(eng, 0, (0,))
    held = _held(eng)
    assert held == Matching([Contract(0, 0, 0), Contract(1, 1, 1)])
    before = ([row[:] for row in eng.K], eng.ccount[:], eng.rcount[:],
              eng.held[:], eng.entry[:], eng.moves[:])
    assert not _raise(eng, 0, (1,))
    after = (eng.K, eng.ccount, eng.rcount, eng.held, eng.entry, eng.moves)
    assert after == before
    assert _held(eng) == held


def test_rsd_serial_order_is_greedy():
    m = load_fixture("example1")
    # whoever moves first takes her top pair and exhausts the resource
    assert run_rsd(m, order=(0, 1)).matching == Matching([Contract(0, 0, 1)])
    assert run_rsd(m, order=(1, 0)).matching == Matching([Contract(1, 1, 1)])


def test_rsd_order_validation():
    m = load_fixture("example1")
    with pytest.raises(ValueError):
        run_rsd(m, order=(0,))
    with pytest.raises(ValueError):
        run_rsd(m, order=(0, 0))
    with pytest.raises(ValueError):
        run_rsd(m, order=(0, 5))


def test_rsd_trace_records_the_order():
    m = load_fixture("example1")
    tr = run_rsd(m, seed=9)
    assert tr.order is not None and sorted(tr.order) == [0, 1]
    assert run_rsd(m, order=tr.order).matching == tr.matching


def test_csd_grants_the_best_college_rank_first():
    # both students demand the same seat; the college's favorite wins no
    # matter the seed, so the run is effectively deterministic
    m = Market(
        n_students=2,
        college_quotas=[1],
        resource_quotas=[],
        regions=[],
        priorities=[[1, 0]],
        preferences=[[(0, 0)], [(0, 0)]],
    )
    for seed in range(6):
        assert run_csd(m, seed=seed).matching == Matching([Contract(1, 0, 0)])


def test_csd_reseats_the_loser_in_a_later_round():
    # the round loser falls back to a remaining seat instead of dropping out
    m = Market(
        n_students=2,
        college_quotas=[1, 1],
        resource_quotas=[],
        regions=[],
        priorities=[[1, 0], [0, 1]],
        preferences=[[(0, 0), (1, 0)], [(0, 0)]],
    )
    for seed in range(6):
        mu = run_csd(m, seed=seed).matching
        assert mu == Matching([Contract(1, 0, 0), Contract(0, 1, 0)])


def test_traces_expose_moves_and_profiles_by_kind():
    m = load_fixture("prop4")
    cut = run_irc(m, seed=0)
    assert cut.profile is not None and cut.order is None
    assert all(len(step) == 2 for step in cut.moves)
    serial = run_rsd(m, seed=0)
    assert serial.profile is None and serial.order is not None
    assert all(isinstance(step, Contract) for step in serial.moves)
    rounds = run_csd(m, seed=0)
    assert rounds.profile is None and rounds.order is None
    assert all(isinstance(step, Contract) for step in rounds.moves)
