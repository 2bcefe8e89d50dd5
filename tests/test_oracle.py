"""Exhaustive enumeration oracle: censuses over the bundled fixtures.

Every index tuple below was first computed by hand-tracing the definitions on
the fixture markets, then frozen. A change in any tuple means the blocking
semantics moved, not that the test needs updating.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from capmatch import (
    Contract,
    Market,
    Matching,
    OracleBoundError,
    census,
    enumerate_matchings,
    is_feasible,
    is_individually_rational,
    is_pareto_efficient,
    load_fixture,
    strategyproofness_probe,
)
from capmatch.oracle import _dominated_rows


def test_two_by_two_market_has_five_matchings_and_no_stable_one():
    cen = census(load_fixture("example1"))
    assert len(cen.matchings) == 5
    assert cen.stable == ()
    assert cen.envy_free == (0, 2, 4)
    assert cen.non_wasteful == (1, 3)
    assert cen.weakly_stable == (2, 4)
    assert cen.direct_envy_stable == (2, 4)
    assert cen.pareto_efficient == (1, 3)
    # the two surviving matchings give each student her second choice
    assert sorted(cen.matchings[2].contracts) == [Contract(1, 0, 1)]
    assert sorted(cen.matchings[4].contracts) == [Contract(0, 1, 1)]


def test_single_college_market_census():
    cen = census(load_fixture("example2"))
    assert len(cen.matchings) == 22
    assert cen.stable == (21,)
    assert cen.weakly_stable == (21,)
    assert cen.direct_envy_stable == (21,)
    assert sorted(cen.matchings[21].contracts) == [
        Contract(0, 0, 0),
        Contract(1, 0, 0),
        Contract(2, 0, 0),
    ]


def test_feasibility_is_not_monotone_in_headcount():
    # three plain admissions fit, yet two resource-backed ones do not: the
    # regional cap binds on the resource, not on the seats
    m = load_fixture("example2")
    assert is_feasible(
        m, Matching([Contract(0, 0, 0), Contract(1, 0, 0), Contract(2, 0, 0)])
    )
    assert not is_feasible(m, Matching([Contract(3, 0, 1), Contract(4, 0, 1)]))


def test_three_college_market_has_a_unique_direct_envy_stable_matching():
    cen = census(load_fixture("prop2"))
    assert len(cen.matchings) == 20
    assert cen.stable == ()
    assert cen.direct_envy_stable == (8,)
    assert sorted(cen.matchings[8].contracts) == [
        Contract(0, 0, 0),
        Contract(2, 1, 0),
    ]
    # that matching leaves a resource unit claimable by its own holder
    assert not cen.reports[8].resource_efficient
    assert 8 not in cen.pareto_efficient


def test_three_college_market_weak_stability_is_empty():
    # the unique direct-envy stable matching is NOT weakly stable: its one
    # waste block targets an undistributed resource and survives only by
    # domination; no other matching passes either test
    cen = census(load_fixture("prop2"))
    assert cen.weakly_stable == ()
    assert cen.direct_envy_stable == (8,)


def test_cyclic_market_has_exactly_two_direct_envy_stable_matchings():
    cen = census(load_fixture("prop4"))
    assert len(cen.matchings) == 67
    assert cen.direct_envy_stable == (30, 48)
    assert sorted(cen.matchings[30].contracts) == [
        Contract(0, 0, 0),
        Contract(1, 1, 0),
        Contract(2, 2, 1),
    ]
    assert sorted(cen.matchings[48].contracts) == [
        Contract(0, 2, 0),
        Contract(1, 1, 1),
        Contract(2, 0, 0),
    ]
    for i in (30, 48):
        assert i not in cen.envy_free
        assert i in cen.weakly_stable


def test_census_set_of_helper():
    cen = census(load_fixture("example1"))
    assert cen.set_of("direct_envy_stable") == [cen.matchings[2], cen.matchings[4]]
    with pytest.raises(AttributeError):
        cen.set_of("nonsense")


def test_enumeration_is_exhaustive_and_exact():
    m = load_fixture("example1")
    mus = enumerate_matchings(m)
    assert len(mus) == len(set(mus)) == 5
    for mu in mus:
        assert is_feasible(m, mu)
        assert is_individually_rational(m, mu)
    # manual count: empty, each student alone at either college
    assert Matching() in mus


def _one_college_free_for_all(n):
    return Market(
        n_students=n,
        college_quotas=[n],
        resource_quotas=[],
        regions=[],
        priorities=[list(range(n))],
        preferences=[[(0, 0)] for _ in range(n)],
    )


def test_enumeration_bound_guard():
    with pytest.raises(OracleBoundError):
        enumerate_matchings(_one_college_free_for_all(24))  # 2^24 > default bound
    # any subset of students may enroll, so the count is exactly 2^n
    assert len(enumerate_matchings(_one_college_free_for_all(5))) == 2**5
    with pytest.raises(OracleBoundError):
        enumerate_matchings(_one_college_free_for_all(5), bound=31)


def test_pareto_efficiency_on_the_two_by_two_market():
    m = load_fixture("example1")
    # both students at their top choice is impossible (one resource unit),
    # so a single top-choice admission is already efficient
    assert is_pareto_efficient(m, Matching([Contract(1, 1, 1)]))
    assert is_pareto_efficient(m, Matching([Contract(0, 0, 1)]))
    assert not is_pareto_efficient(m, Matching())
    assert not is_pareto_efficient(m, Matching([Contract(1, 0, 1)]))


def test_probe_finds_the_truncation_misreport():
    # on the zero-resource two-college market, reporting only the top pair
    # flips the outcome from the second choice to the first under every
    # cutoff mechanism, regardless of seed
    m = load_fixture("prop8_market2")
    for name in ("irc", "imc", "idc", "iuc"):
        for seed in (0, 3):
            hit = strategyproofness_probe(m, name, student=0, seed=seed)
            assert hit is not None, (name, seed)
            assert hit["misreport"] == ((1, 0),)
            assert hit["truthful_assignment"] == (0, 0)
            assert hit["deviating_assignment"] == (1, 0)


def test_probe_clears_rsd_on_tiny_markets():
    for name in ("example1", "prop8_market1", "prop8_market2"):
        m = load_fixture(name)
        for s in range(m.n_students):
            assert strategyproofness_probe(m, "rsd", student=s) is None, (name, s)


def test_probe_bound_guard():
    m = load_fixture("prop2")
    with pytest.raises(OracleBoundError):
        strategyproofness_probe(m, "rsd", student=0, bound=3)


def test_rsd_probe_refuses_before_it_builds_the_serial_orders():
    # 12! = 479,001,600 orders: building them first would take gigabytes
    m = Market(
        n_students=12,
        college_quotas=[1],
        resource_quotas=[],
        regions=[],
        priorities=[list(range(12))],
        preferences=[[(0, 0)]] * 12,
    )
    message = "2 misreports x 479001600 orders exceeds 200000"
    with pytest.raises(OracleBoundError, match=f"^{message}$"):
        strategyproofness_probe(m, "rsd", student=0)


def test_probe_accepts_a_callable():
    m = load_fixture("prop8_market1")

    def constant_empty(mm):
        return Matching()

    # an empty outcome is trivially unimprovable by lying
    assert strategyproofness_probe(m, constant_empty, student=0) is None


@given(
    arrays(
        np.int64,
        st.tuples(st.integers(0, 40), st.integers(0, 6)),
        elements=st.integers(0, 4),
    )
)
def test_dominated_rows_is_pairwise_pareto_domination(P):
    # small values make duplicate rows and ties common
    expected = [
        any((p <= q).all() and (p < q).any() for p in P) for q in P
    ]
    assert _dominated_rows(P, P).tolist() == expected
