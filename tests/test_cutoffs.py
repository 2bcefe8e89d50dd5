"""Cutoff profiles: dominance invariant, increments, induced demand."""

import pytest

from capmatch import (
    Contract,
    CutoffProfile,
    Market,
    Matching,
    census,
    cutoffs_of,
    increment,
    induced_matching,
    is_feasible,
    is_optimal,
    load_fixture,
    maximal_profile,
    zero_profile,
)
from capmatch.cutoffs import eligible_contracts


def test_profile_validation():
    CutoffProfile([[2, 1], [0, 0]], n_students=2)
    with pytest.raises(ValueError):
        CutoffProfile([[1, 2], [0, 0]], n_students=2)  # r row above the r0 row
    with pytest.raises(ValueError):
        CutoffProfile([[3, 0], [0, 0]], n_students=2)  # beyond student count
    with pytest.raises(ValueError):
        CutoffProfile([[2, -1], [0, 0]], n_students=2)


def test_profile_accessors():
    k = CutoffProfile([[2, 1], [1, 0]], n_students=2)
    assert k[0] == (2, 1) and k[1][1] == 0
    assert k.to_lists() == [[2, 1], [1, 0]]
    assert set(k.entries()) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert k == CutoffProfile([[2, 1], [1, 0]], n_students=2)
    assert hash(k) == hash(CutoffProfile([[2, 1], [1, 0]], n_students=2))


def test_profile_accessors_refuse_out_of_range_ids():
    k = CutoffProfile([[3, 1], [0, 0], [1, 0]], n_students=3)
    for call, message in [
        (lambda: k.is_maximal(-3, 0), "unknown college id -3"),
        (lambda: k.is_maximal(0, -2), "unknown resource id -2"),
        (lambda: k[-1], "unknown college id -1"),
        (lambda: k[3], "unknown college id 3"),
        (lambda: k.is_maximal(0, 2), "unknown resource id 2"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()
    assert k[2] == (1, 0) and k.is_maximal(0, 0) and not k.is_maximal(0, 1)


def test_zero_and_maximal_profiles():
    m = load_fixture("example1")
    z = zero_profile(m)
    assert all(z[c][r] == 0 for c, r in z.entries())
    assert not z.is_maximal(0, 0)
    top = maximal_profile(m)
    assert all(top.is_maximal(*e) for e in top.entries())
    assert induced_matching(m, z) == Matching()


def test_eligibility_follows_rank_and_cutoff():
    m = load_fixture("example1")
    # college 0 ranks s1 first; a cutoff of 1 admits only her
    k = CutoffProfile([[1, 1], [0, 0]], n_students=2)
    elig = eligible_contracts(m, k)
    assert Contract(1, 0, 1) in elig
    assert Contract(0, 0, 1) not in elig


def test_induced_matching_is_pure_demand():
    # with every gate open, both students demand their top choice even
    # though the joint result overdraws the single resource unit: the
    # induced matching reports demand, feasibility is checked elsewhere
    m = load_fixture("example1")
    mu = induced_matching(m, maximal_profile(m))
    assert mu == Matching([Contract(0, 0, 1), Contract(1, 1, 1)])
    assert not is_feasible(m, mu)
    assert not is_optimal(m, maximal_profile(m))


def test_increment_couples_tied_rows():
    m = load_fixture("example1")  # 2 students, rows are [r0, r1]
    k = zero_profile(m)
    k2 = increment(m, k, 0, 1)
    # both rows rise together while tied, keeping the dominance invariant
    assert k2.to_lists() == [[1, 1], [0, 0]]
    k3 = increment(m, k2, 0, 0)
    assert k3.to_lists() == [[2, 1], [0, 0]]
    # now the rows differ, so the resource row moves alone
    k4 = increment(m, k3, 0, 1)
    assert k4.to_lists() == [[2, 2], [0, 0]]
    with pytest.raises(ValueError):
        increment(m, k4, 0, 1)  # already maximal


def test_increment_leaves_the_source_untouched():
    m = load_fixture("example1")
    k = zero_profile(m)
    increment(m, k, 1, 0)
    assert k == zero_profile(m)


ROUND_TRIPS = {
    # fixture -> {census index: expected cutoff rows}
    "example1": {2: [[2, 1], [2, 0]], 4: [[2, 0], [2, 1]]},
    "prop2": {8: [[3, 1], [3, 3], [3, 3]]},
    "prop4": {30: [[3, 0], [3, 0], [3, 1]], 48: [[2, 1], [3, 2], [3, 0]]},
    "example2": {21: [[5, 3]]},
}


def test_cutoffs_of_round_trips_every_surviving_matching():
    for name, expected in ROUND_TRIPS.items():
        m = load_fixture(name)
        cen = census(m)
        assert set(expected) == set(cen.direct_envy_stable)
        for i, rows in expected.items():
            mu = cen.matchings[i]
            k = cutoffs_of(m, mu)
            assert k.to_lists() == rows, (name, i)
            assert induced_matching(m, k) == mu
            assert is_optimal(m, k)


def test_cutoffs_of_clamps_floating_resource_rows():
    """Regression: when a student lists a resourced pair without the plain
    fallback, the raw resource row can float above the plain row. The profile
    must come back clamped and still induce the same matching."""
    m = Market(
        n_students=2,
        college_quotas=[1],
        resource_quotas=[1],
        regions=[[0]],
        priorities=[[1, 0]],
        preferences=[[(0, 0)], [(0, 1), (0, 0)]],
    )
    mu = Matching([Contract(1, 0, 1)])
    k = cutoffs_of(m, mu)
    assert k.to_lists() == [[1, 1]]
    assert induced_matching(m, k) == mu
    assert is_optimal(m, k)


def test_cutoffs_of_rejects_unstable_input():
    m = load_fixture("example1")
    with pytest.raises(ValueError):
        cutoffs_of(m, Matching())  # undominated waste everywhere


def test_cutoffs_of_rejects_direct_envy():
    # s1 admitted plainly at c1 while s2, whom c1 prefers, is out: direct envy
    m = load_fixture("prop2")
    mu = Matching([Contract(1, 0, 0)])
    with pytest.raises(ValueError):
        cutoffs_of(m, mu)


def test_optimality_means_no_feasible_increment():
    m = load_fixture("example1")
    k = cutoffs_of(m, census(m).matchings[2])
    assert is_optimal(m, k)
    # any profile below it still admits a feasible raise
    assert not is_optimal(m, zero_profile(m))
