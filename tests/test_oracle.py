"""Exhaustive enumeration oracle: censuses over the bundled fixtures.

Every index tuple below was first computed by hand-tracing the definitions on
the fixture markets, then frozen. A change in any tuple means the blocking
semantics moved, not that the test needs updating.
"""

import pickle
from dataclasses import replace
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from capmatch import (
    MECHANISMS,
    Contract,
    Market,
    Matching,
    OracleBoundError,
    audit,
    census,
    cutoffs_of,
    enumerate_matchings,
    fixture_names,
    induced_matching,
    is_feasible,
    is_individually_rational,
    is_optimal,
    is_pareto_efficient,
    load_fixture,
    replay_trace,
    strategyproofness_probe,
    validate_market,
)
from capmatch import oracle
from capmatch.oracle import CENSUS_SETS, _dominated_rows, naive_audit


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


def test_two_students_suffice_for_direct_envy_stable_but_not_weakly_stable():
    """The smallest counterexample to criterion 4 known: a clean market with
    two students, two colleges and one shared unit. Student 0 sits at
    college 1 although she wants (0, 1) most; granting that unit to
    student 1, who holds a plain seat at 0, is a waste block, dominated
    because 0 outranks 1 at college 0 and would then envy her directly.
    The unit stays undistributed, so the matching is not weakly stable."""
    m = Market(
        2,
        [1, 1],
        [1],
        [[0, 1]],
        [[0, 1], [0, 1]],
        [[(0, 1), (1, 0), (0, 0)], [(0, 1), (0, 0)]],
    )
    assert validate_market(m) == []
    mu = Matching([Contract(0, 1, 0), Contract(1, 0, 0)])
    for rep in (audit(m, mu), naive_audit(m, mu)):
        assert rep.direct_envy_stable
        assert not rep.weakly_stable
    i = census(m).matchings.index(mu)
    assert i in census(m).direct_envy_stable
    assert i not in census(m).weakly_stable


def test_census_set_of_helper():
    cen = census(load_fixture("example1"))
    assert cen.set_of("direct_envy_stable") == [cen.matchings[2], cen.matchings[4]]
    assert CENSUS_SETS == (
        "stable",
        "envy_free",
        "non_wasteful",
        "weakly_stable",
        "direct_envy_stable",
        "pareto_efficient",
    )
    for name in CENSUS_SETS:
        assert cen.set_of(name) == [cen.matchings[i] for i in getattr(cen, name)]


@pytest.mark.parametrize("name", ["nonsense", "matchings", "reports", "set_of"])
def test_census_set_of_refuses_a_name_that_is_no_set(name):
    cen = census(load_fixture("example1"))
    with pytest.raises(AttributeError, match=f"^a census has no set '{name}'$"):
        cen.set_of(name)


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


def test_the_walk_stops_at_its_matching_bound(monkeypatch):
    # 2^5 leaves fit the leaf bound, but not 32 matchings under a bound of 31
    m = _one_college_free_for_all(5)
    monkeypatch.setattr(oracle, "_MAX_MATCHINGS", 32)
    assert len(enumerate_matchings(m)) == 32
    monkeypatch.setattr(oracle, "_MAX_MATCHINGS", 31)
    message = "^the walk found more than 31 matchings$"
    with pytest.raises(OracleBoundError, match=message):
        enumerate_matchings(m)
    with pytest.raises(OracleBoundError, match=message):
        census(m)


def test_pareto_efficiency_on_the_two_by_two_market():
    m = load_fixture("example1")
    # both students at their top choice is impossible (one resource unit),
    # so a single top-choice admission is already efficient
    assert is_pareto_efficient(m, Matching([Contract(1, 1, 1)]))
    assert is_pareto_efficient(m, Matching([Contract(0, 0, 1)]))
    assert not is_pareto_efficient(m, Matching())
    assert not is_pareto_efficient(m, Matching([Contract(1, 0, 1)]))


@pytest.mark.parametrize("x", [Contract(-1, 0, 1), Contract(9, 0, 0)])
def test_pareto_efficiency_refuses_an_unknown_student(x):
    # -1 must not be read as the last student, nor 9 fail on an index
    with pytest.raises(ValueError, match=f"^unknown student id {x.student}$"):
        is_pareto_efficient(load_fixture("example1"), Matching([x]))


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


@pytest.mark.parametrize("student", [-2, -1, 2])
def test_probe_refuses_an_unknown_student(student):
    m = load_fixture("prop8_market2")
    # student 0 has a profitable misreport; -2 must not be read as student 0
    assert strategyproofness_probe(m, "irc", student=0, seed=0) is not None
    with pytest.raises(ValueError, match=f"^unknown student id {student}$"):
        strategyproofness_probe(m, "irc", student=student, seed=0)


def test_probe_refuses_an_unknown_mechanism_name():
    # before the bound check: a bound of 0 refuses every probe
    m = load_fixture("prop2")
    for bound in (200_000, 0):
        with pytest.raises(ValueError, match="^unknown mechanism 'nope'$"):
            strategyproofness_probe(m, "nope", 0, bound=bound)


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


@st.composite
def small_markets(draw, complete=False):
    """Markets of up to four students whose college lists may leave students
    out, with R = 0 and empty preference lists among them. With complete,
    every college ranks every student, as the mechanisms require."""
    n = draw(st.integers(0, 4))
    n_c = draw(st.integers(1, 3))
    n_r = draw(st.integers(0, 2))
    colleges = range(n_c)
    pairs = [(c, r) for c in colleges for r in range(n_r + 1)]
    return Market(
        n,
        draw(st.lists(st.integers(1, 2), min_size=n_c, max_size=n_c)),
        draw(st.lists(st.integers(1, 2), min_size=n_r, max_size=n_r)),
        [draw(st.sets(st.sampled_from(colleges), min_size=1)) for _ in range(n_r)],
        [
            draw(st.permutations(range(n)))[
                : n if complete else draw(st.integers(0, n))
            ]
            for _ in colleges
        ],
        [
            draw(st.permutations(pairs))[: draw(st.integers(0, min(4, len(pairs))))]
            for _ in range(n)
        ],
    )


@settings(max_examples=200, deadline=None)
@given(small_markets())
@example(Market(2, [1], [], [], [[1]], [[(0, 0)], [(0, 0)]]))
@example(Market(3, [1, 2], [1], [[1]], [[0, 2], [2, 1, 0]], [[], [(1, 1), (0, 0)], []]))
@example(Market(1, [], [], [], [], [[]]))  # no college
@example(Market(0, [], [], [], [], []))
def test_naive_audit_agrees_with_audit_and_the_census(m):
    """On every matching of a random small market, the definitional audit,
    the scan and the census's array audit give equal reports, witnesses
    included."""
    result = census(m)
    for mu, rep in zip(result.matchings, result.reports):
        assert rep == audit(m, mu) == naive_audit(m, mu), mu


@settings(max_examples=150, deadline=None)
@given(small_markets(complete=True), st.integers(0, 2**32 - 1))
def test_cutoff_mechanisms_end_in_the_census_direct_envy_stable_set(m, seed):
    des = set(census(m).set_of("direct_envy_stable"))
    for name in ("irc", "imc", "idc"):
        assert MECHANISMS[name](m, seed=seed).matching in des, name


@settings(max_examples=150, deadline=None)
@given(small_markets(complete=True), st.integers(0, 2**32 - 1))
def test_cutoffs_of_round_trips_optimal_profiles(m, seed):
    """The profile an optimal profile induces its matching from is the one
    cutoffs_of reads back from that matching: on the terminal profiles of
    the cutoff mechanisms, and on the profile of every direct-envy stable
    matching of the census."""
    profiles = [MECHANISMS[k](m, seed=seed).profile for k in ("irc", "imc", "idc")]
    profiles += [cutoffs_of(m, mu) for mu in census(m).set_of("direct_envy_stable")]
    for k in profiles:
        assert is_optimal(m, k)
        assert cutoffs_of(m, induced_matching(m, k)) == k


@settings(max_examples=150, deadline=None)
@given(small_markets(complete=True), st.integers(0, 2**32 - 1))
def test_every_trace_replays_to_its_matching(m, seed):
    for name, run in MECHANISMS.items():
        trace = run(m, seed=seed)
        assert replay_trace(m, trace) == trace.matching, name


def test_every_tiny_shared_unit_market_has_a_direct_envy_stable_matching():
    """Existence of a direct-envy stable matching, checked outright on every
    market of one tiny shape: two students, two colleges of one seat each,
    one unit that both colleges may hand out, every pair of priority orders
    and, for each student, every ordered sublist of the four pairs. That is
    4 x 65 x 65 = 16,900 markets."""
    pairs = [(c, r) for c in range(2) for r in range(2)]
    lists = [list(p) for k in range(len(pairs) + 1) for p in permutations(pairs, k)]
    orders = [list(p) for p in permutations(range(2))]
    markets = 0
    for priorities in product(orders, repeat=2):
        for preferences in product(lists, repeat=2):
            m = Market(2, [1, 1], [1], [[0, 1]], list(priorities), list(preferences))
            assert census(m).direct_envy_stable, (priorities, preferences)
            markets += 1
    assert markets == 16_900


def test_the_walk_lists_each_matching_in_student_order():
    """enumerate_matchings builds each Matching from the walk's contracts
    without sorting or checking them, so they must come one per student, in
    student order, as exact Contracts: then each equals the Matching the
    public constructor builds from the same contracts."""
    seen = 0
    for name in fixture_names():
        for mu in enumerate_matchings(load_fixture(name)):
            students = [x.student for x in mu]
            assert students == sorted(set(students))
            assert all(type(x) is Contract for x in mu)
            built = Matching(list(mu)[::-1])
            assert mu == built and hash(mu) == hash(built)
            seen += 1
    assert seen > 100


def _index(seq, x, *bounds):
    """seq.index(x, *bounds), or None where it raises ValueError."""
    try:
        return seq.index(x, *bounds)
    except ValueError:
        return None


def _assert_searches_as_the_tuple(lazy, expected):
    """reversed, and `in`, count and index with negative starts and with
    stops, give on the lazy sequence what they give on its tuple."""
    n = len(expected)
    assert list(reversed(lazy)) == list(reversed(expected))
    mid = expected[n // 2]
    assert (mid in lazy) is (mid in expected) is True
    assert lazy.count(mid) == expected.count(mid)
    for x in (expected[0], mid, expected[-1]):
        for bounds in ((), (-1,), (-2,), (-n - 3,), (0, n // 2), (1, n // 2 + 1), (-3, -1)):
            assert _index(lazy, x, *bounds) == _index(expected, x, *bounds), bounds


def test_census_matchings_behave_as_the_tuple_of_the_enumeration():
    """A census builds its matchings when they are read. The sequence must
    equal the enumeration's tuple from either side, with the same hash, and
    index, slice, reverse, search, count, print and pickle as that tuple
    does."""
    for name in fixture_names():
        m = load_fixture(name)
        expected = tuple(enumerate_matchings(m))
        cen = census(m)
        lazy = cen.matchings
        assert lazy == expected and expected == lazy
        assert not lazy != expected and not expected != lazy
        assert hash(lazy) == hash(expected)
        assert len(lazy) == len(expected)
        assert list(lazy) == list(expected)
        assert repr(lazy) == repr(expected)
        for i in (0, 1, -1, -len(expected)):
            assert lazy[i] == expected[i]
        for cut in (slice(1, 3), slice(None, None, -1), slice(-2, None), slice(5, 1)):
            assert type(lazy[cut]) is tuple and lazy[cut] == expected[cut]
        last = expected[-1]
        assert last in lazy and Matching([Contract(0, 0, 9)]) not in lazy
        assert lazy.index(last) == expected.index(last) == len(expected) - 1
        assert lazy.count(last) == 1
        with pytest.raises(ValueError):
            lazy.index(last, 0, len(expected) - 1)
        _assert_searches_as_the_tuple(lazy, expected)
        with pytest.raises(IndexError, match="^tuple index out of range$"):
            lazy[len(expected)]
        with pytest.raises(
            TypeError, match="^tuple indices must be integers or slices, not str$"
        ):
            lazy["x"]
        assert pickle.loads(pickle.dumps(lazy)) == expected
        assert pickle.loads(pickle.dumps(cen)) == cen
        assert replace(cen, matchings=expected) == cen
        assert cen.set_of("pareto_efficient") == [
            expected[i] for i in cen.pareto_efficient
        ]


def test_census_reports_behave_as_the_tuple_of_lone_audits():
    """A census builds its reports when they are read. The sequence must
    equal the tuple of one lone audit per matching from either side, and
    index, slice, reverse, search, count, print and pickle as that tuple
    does."""
    for name in fixture_names():
        m = load_fixture(name)
        cen = census(m)
        expected = tuple(audit(m, mu) for mu in enumerate_matchings(m))
        lazy = cen.reports
        assert lazy == expected and expected == lazy
        assert not lazy != expected and not expected != lazy
        assert len(lazy) == len(expected)
        assert list(lazy) == list(expected)
        assert repr(lazy) == repr(expected)
        for seq in (lazy, expected):  # a report holds its counts in a dict
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(seq)
        for i in (0, 1, -1, -len(expected)):
            assert lazy[i] == expected[i]
        for cut in (slice(1, 3), slice(None, None, -1), slice(-2, None), slice(5, 1)):
            assert type(lazy[cut]) is tuple and lazy[cut] == expected[cut]
        for rep in (expected[0], expected[-1]):
            assert rep in lazy
            assert lazy.index(rep) == expected.index(rep)
            assert lazy.count(rep) == expected.count(rep)
        absent = replace(expected[0], total=-1)
        assert absent not in lazy and lazy.count(absent) == 0
        with pytest.raises(ValueError):
            lazy.index(absent)
        _assert_searches_as_the_tuple(lazy, expected)
        with pytest.raises(IndexError, match="^tuple index out of range$"):
            lazy[len(expected)]
        with pytest.raises(
            TypeError, match="^tuple indices must be integers or slices, not str$"
        ):
            lazy["x"]
        assert pickle.loads(pickle.dumps(lazy)) == expected
        assert pickle.loads(pickle.dumps(cen)) == cen
        assert replace(cen, reports=expected) == cen
        assert cen == replace(cen, reports=expected)


def _count_builds(monkeypatch, which: str) -> list:
    """A list that gets one entry per _build call of the census sequence
    named by which (reports or matchings) from now on."""
    lazy_type = type(getattr(census(load_fixture("example1")), which))
    real_build = lazy_type._build
    builds = []

    def counting_build(self):
        builds.append(len(self))
        return real_build(self)

    monkeypatch.setattr(lazy_type, "_build", counting_build)
    return builds


@pytest.mark.parametrize("which", ["reports", "matchings"])
def test_census_search_builds_once_and_fails_as_the_tuple(which, monkeypatch):
    """On a fresh census len builds nothing, and any first read builds
    every item in one _build call; later reads build nothing more. An
    absent item raises the tuple's ValueError message."""
    m = load_fixture("prop4")
    expected = tuple(getattr(census(m), which))
    n = len(expected)
    builds = _count_builds(monkeypatch, which)
    reads = {
        "index": lambda lazy: lazy[n // 2] == expected[n // 2],
        "slice": lambda lazy: lazy[1:3] == expected[1:3],
        "in": lambda lazy: expected[-1] in lazy,
        "reversed": lambda lazy: next(reversed(lazy)) == expected[-1],
        "index()": lambda lazy: lazy.index(expected[-1]) == n - 1,
        "count": lambda lazy: lazy.count(expected[1]) == 1,
        "iteration": lambda lazy: list(lazy) == list(expected),
        "repr": lambda lazy: repr(lazy) == repr(expected),
    }
    for name, read in reads.items():
        lazy = getattr(census(m), which)
        assert len(lazy) == n and builds == [], name
        assert read(lazy) and read(lazy) and lazy[-1] == expected[-1], name
        assert builds == [n], name
        builds.clear()
    message = r"^tuple\.index\(x\): x not in tuple$"
    with pytest.raises(ValueError, match=message):
        expected.index(object())
    with pytest.raises(ValueError, match=message):
        lazy.index(object())
    with pytest.raises(ValueError, match=message):
        lazy.index(expected[-1], 0, -1)
    assert builds == []


@pytest.mark.parametrize("which", ["reports", "matchings"])
def test_two_censuses_compare_equal_without_building(which, monkeypatch):
    """Equal contract tables and equal arrays make two census sequences,
    and so two censuses, equal; the comparison builds no item. Sequences
    of different markets fall back to comparing the items; for reports
    that holds also when only the priorities differ, so that the tables
    and the matchings are equal."""
    m = load_fixture("prop4")
    builds = _count_builds(monkeypatch, which)
    a, b = census(m), census(m)
    assert a == b and getattr(a, which) == getattr(b, which)
    assert builds == []
    other = getattr(census(load_fixture("prop2")), which)
    assert getattr(a, which) != other and other != getattr(a, which)
    flipped = census(
        Market(
            m.n_students,
            m.college_quotas,
            m.resource_quotas,
            m.regions,
            [p[::-1] for p in m.priorities],
            m.preferences,
        )
    )
    assert flipped.matchings == a.matchings
    if which == "reports":
        assert flipped.reports != a.reports and a.reports != flipped.reports


def test_census_reports_are_the_same_over_several_blocks(monkeypatch):
    """With blocks of 64 cells, which split the censuses of example2, prop2
    and prop4 into 10 to 67 blocks of rows, every report, witnesses
    included, equals the one-block census's once it is read."""
    whole = {name: tuple(census(load_fixture(name)).reports) for name in fixture_names()}
    monkeypatch.setattr(oracle, "_BLOCK_CELLS", 64)
    for name, reports in whole.items():
        assert tuple(census(load_fixture(name)).reports) == reports, name


def test_the_row_audit_refuses_a_row_over_quota():
    # both students at their first choice hold the one unit twice
    m = load_fixture("example1")
    table = oracle._contract_table(m)
    assert len(oracle._audit_rows(m, table, np.array([[0, 2], [2, 0]]))[0]) == 2
    with pytest.raises(ValueError, match="^matching is not feasible$"):
        oracle._audit_rows(m, table, np.array([[0, 2], [0, 0]]))
