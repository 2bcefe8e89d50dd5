"""Core model layer: markets, matchings, feasibility, serialization."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capmatch import (
    EMPTY_RESOURCE,
    MECHANISMS,
    Contract,
    GenConfig,
    Market,
    Matching,
    audit,
    census,
    enumerate_matchings,
    fixture_names,
    generate_market,
    increment,
    is_feasible,
    is_individually_rational,
    is_pareto_efficient,
    load_fixture,
    prefers,
    rank,
    validate_market,
    zero_profile,
)
from capmatch.market import (
    dumps_market,
    fits,
    loads_market,
    market_from_dict,
    market_to_dict,
    matching_from_list,
    matching_to_list,
)


def tiny_market():
    # two students, two colleges, one shared-region resource, quotas all 1
    return Market(
        n_students=2,
        college_quotas=[1, 1],
        resource_quotas=[1],
        regions=[[0, 1]],
        priorities=[[1, 0], [0, 1]],
        preferences=[
            [(0, 1), (1, 1)],
            [(1, 1), (0, 1)],
        ],
    )


def test_construction_shapes_are_checked():
    with pytest.raises(ValueError):
        Market(2, [1], [1], [], [[0, 1]], [[], []])  # quotas/regions misaligned
    with pytest.raises(ValueError):
        Market(2, [1], [], [], [[0, 1], [1, 0]], [[], []])  # extra priority list
    with pytest.raises(ValueError):
        Market(3, [1], [], [], [[0, 1, 2]], [[], []])  # missing a pref list
    with pytest.raises(ValueError):
        Market(-1, [], [], [], [], [])


def test_empty_resource_is_id_zero_and_everywhere():
    m = tiny_market()
    assert EMPTY_RESOURCE == 0
    assert m.in_region(0, EMPTY_RESOURCE)
    assert m.in_region(1, EMPTY_RESOURCE)
    # the single non-empty resource is id 1 with quota 1, region both colleges
    assert m.resource_quota(1) == 1
    assert m.region(1) == frozenset({0, 1})
    assert m.n_resources == 1  # counts non-empty resources only


def test_rank_is_one_based():
    m = tiny_market()
    assert rank(m, 0, 1) == 1
    assert rank(m, 0, 0) == 2
    assert rank(m, 1, 0) == 1
    m2 = Market(2, [1], [], [], [[0]], [[], []])  # student 1 unranked
    with pytest.raises(ValueError):
        rank(m2, 0, 1)


def test_pref_position_totalizes_with_unmatched_in_the_middle():
    m = tiny_market()
    # student 0 lists (0,1) then (1,1); unmatched sits after the list,
    # unlisted pairs after that.
    assert m.pref_position(0, (0, 1)) == 0
    assert m.pref_position(0, (1, 1)) == 1
    assert m.pref_position(0, None) == 2
    assert m.pref_position(0, (0, 0)) == 3
    assert prefers(m, 0, (0, 1), (1, 1))
    assert prefers(m, 0, None, (0, 0))  # unmatched beats unlisted
    assert not prefers(m, 0, (0, 1), (0, 1))  # strict


# prop4: 3 students, 3 colleges, 1 non-empty resource. A negative id used to
# read a list from its end, and in_region(99, 0) answered True.
LOOKUPS = {
    "rank-student": (lambda m: rank(m, 0, -1), "student id -1"),
    "rank-student-high": (lambda m: rank(m, 0, 3), "student id 3"),
    "rank-college": (lambda m: rank(m, -1, 0), "college id -1"),
    "pref_position": (lambda m: m.pref_position(-1, None), "student id -1"),
    "pref_position-high": (lambda m: m.pref_position(3, (0, 0)), "student id 3"),
    "acceptable": (lambda m: m.acceptable(-1, 0, 1), "student id -1"),
    "prefers": (lambda m: prefers(m, -1, None, (0, 0)), "student id -1"),
    "resource_quota": (lambda m: m.resource_quota(0), "non-empty resource id 0"),
    "resource_quota-high": (lambda m: m.resource_quota(2), "non-empty resource id 2"),
    "region": (lambda m: m.region(0), "non-empty resource id 0"),
    "region-negative": (lambda m: m.region(-1), "non-empty resource id -1"),
    "in_region": (lambda m: m.in_region(99, 0), "college id 99"),
    "in_region-college": (lambda m: m.in_region(-1, 0), "college id -1"),
    "in_region-resource": (lambda m: m.in_region(0, 2), "resource id 2"),
    "increment-college": (
        lambda m: increment(m, zero_profile(m), -1, 0), "college id -1"
    ),
    "increment-resource": (
        lambda m: increment(m, zero_profile(m), 0, -1), "resource id -1"
    ),
    "increment-resource-high": (
        lambda m: increment(m, zero_profile(m), 0, 2), "resource id 2"
    ),
}


@pytest.mark.parametrize("lookup, message", LOOKUPS.values(), ids=LOOKUPS)
def test_lookups_refuse_an_out_of_range_id_by_name(lookup, message):
    with pytest.raises(ValueError, match=f"^unknown {message}$"):
        lookup(load_fixture("prop4"))


def test_duplicate_pref_entries_keep_first_position():
    m = Market(1, [1], [], [], [[0]], [[(0, 0), (0, 0)]])
    assert m.pref_position(0, (0, 0)) == 0
    # the duplicate is a validation warning, not a hard error
    issues = validate_market(m)
    assert any(sev == "error" for sev, _ in issues)


def test_matching_rejects_two_contracts_per_student():
    with pytest.raises(ValueError, match="^student 0 holds two contracts$"):
        Matching([Contract(0, 0, 0), Contract(0, 1, 0)])
    twice = [Contract(3, 0, 0), Contract(3, 1, 0), Contract(1, 1, 0), Contract(1, 0, 1)]
    with pytest.raises(ValueError, match="^student 1 holds two contracts$"):
        Matching(twice)


@pytest.mark.parametrize(
    "check", [is_feasible, is_individually_rational, audit],
    ids=["feasible", "rational", "audit"],
)
@pytest.mark.parametrize(
    "x, message",
    [
        (Contract(2, 0, 0), "unknown student id 2"),
        (Contract(-1, 0, 0), "unknown student id -1"),
        (Contract(0, 2, 0), "unknown college id 2"),
        (Contract(0, -1, 0), "unknown college id -1"),
        (Contract(0, 0, 2), "unknown resource id 2"),
        (Contract(0, 0, -1), "unknown resource id -1"),
    ],
    ids=["student", "negative-student", "college", "negative-college",
         "resource", "negative-resource"],
)
def test_unknown_or_negative_ids_are_refused_by_name(check, x, message):
    mu = Matching([x, Contract(1, 1, 0)])
    with pytest.raises(ValueError, match=f"^{message}$"):
        check(tiny_market(), mu)


def test_matching_containers_and_equality():
    mu = Matching([Contract(1, 0, 1), Contract(0, 1, 0)])
    assert len(mu) == 2
    assert Contract(0, 1, 0) in mu
    assert mu.student_contract(0) == Contract(0, 1, 0)
    assert mu.student_contract(7) is None
    # order of construction is irrelevant
    assert mu == Matching([Contract(0, 1, 0), Contract(1, 0, 1)])
    assert hash(mu) == hash(Matching([Contract(0, 1, 0), Contract(1, 0, 1)]))
    assert list(mu) == sorted(mu)
    # rows read from JSON are converted to contracts
    assert Matching([[1, 0, 1], (0, 1, 0)]) == mu


def test_a_matching_holds_its_contracts_once():
    mu = Matching([Contract(1, 0, 1), Contract(0, 1, 0)])
    assert Matching.__slots__ == ("_items",)
    assert not hasattr(mu, "__dict__")
    assert mu.contracts == frozenset({Contract(0, 1, 0), Contract(1, 0, 1)})
    with pytest.raises(AttributeError):
        mu.contracts = frozenset()


# one contract per student: a dict from student id to (college, resource)
ONE_PER_STUDENT = st.dictionaries(
    st.integers(0, 30), st.tuples(st.integers(0, 4), st.integers(0, 3)), max_size=12
)


@settings(max_examples=200, deadline=None)
@given(rows=ONE_PER_STUDENT, data=st.data())
def test_matching_agrees_with_a_set_and_dict_model(rows, data):
    contracts = [Contract(s, c, r) for s, (c, r) in rows.items()]
    model = frozenset(contracts)
    by_student = {x.student: x for x in contracts}
    mu = Matching(contracts)
    shuffled = Matching(data.draw(st.permutations(contracts)))
    assert mu == shuffled and hash(mu) == hash(shuffled)
    assert mu.contracts == model and type(mu.contracts) is frozenset
    assert len(mu) == len(model)
    assert list(mu) == sorted(model)
    for x in contracts:
        assert x in mu and tuple(x) in mu
        assert Contract(x.student, x.college + 1, x.resource) not in mu
        assert (x.student, x.college, x.resource + 1) not in mu
    if contracts:
        assert Matching(contracts[1:]) != mu
    absent = data.draw(st.sampled_from([s for s in range(32) if s not in rows]))
    students = sorted(rows)
    probes = [absent, -1, -len(rows) - 1, 31, 10**6] + students[:1] + students[-1:]
    for s in probes:
        assert mu.student_contract(s) == by_student.get(s)


def test_feasibility_checks_quotas_and_regions():
    m = tiny_market()
    assert is_feasible(m, Matching([Contract(0, 0, 1)]))
    # two units of resource 1 exceed its regional quota of 1
    assert not is_feasible(m, Matching([Contract(0, 0, 1), Contract(1, 1, 1)]))
    # college quota 1 violated
    m3 = Market(2, [1], [2], [[0]], [[0, 1]], [[(0, 1)], [(0, 1)]])
    assert not is_feasible(m3, Matching([Contract(0, 0, 1), Contract(1, 0, 1)]))
    # region membership: resource 1's region excludes college 1
    m4 = Market(1, [1, 1], [1], [[0]], [[0], [0]], [[(1, 1)]])
    assert not is_feasible(m4, Matching([Contract(0, 1, 1)]))
    assert is_feasible(m4, Matching([Contract(0, 1, 0)]))  # empty resource fine


def test_empty_resource_never_counts_against_resource_quotas():
    m = Market(3, [3], [1], [[0]], [[0, 1, 2]], [[(0, 0)]] * 3)
    mu = Matching([Contract(s, 0, 0) for s in range(3)])
    assert is_feasible(m, mu)


def fits_markets():
    """The fixtures and small scarce-quota markets, some with split regions."""
    for name in fixture_names():
        yield load_fixture(name)
    for seed, scheme in enumerate(("all", "partition", "random:1") * 2):
        cfg = GenConfig(
            n_students=6,
            n_colleges=3,
            n_resources=2,
            college_balance="down",
            resource_balance="down",
            region_scheme=scheme,
        )
        yield generate_market(cfg, seed=seed)


def test_fits_agrees_with_feasibility_of_the_changed_matching():
    """For every feasible IR mu, every acceptable x = (s, c, r) and every
    other contract y at c: re-seating s onto x fits exactly when
    mu - {mu_s} + {x} is feasible, and the swap fits exactly when
    mu - {mu_s, y} + {x} is."""
    outcomes = {True: 0, False: 0}
    for m in fits_markets():
        for mu in enumerate_matchings(m):
            ccount = [0] * m.n_colleges
            rcount = [0] * (m.n_resources + 1)
            roster = [[] for _ in range(m.n_colleges)]
            for y in mu:
                ccount[y.college] += 1
                rcount[y.resource] += 1
                roster[y.college].append(y)
            for s in range(m.n_students):
                cur = mu.student_contract(s)
                rest = mu.contracts - {cur}
                for c, r in m.preferences[s]:
                    x = Contract(s, c, r)
                    at_c = cur is not None and cur.college == c
                    had_r = cur is not None and cur.resource == r
                    got = fits(m, ccount, rcount, c, r, at_c, had_r)
                    assert got == is_feasible(m, Matching(rest | {x})), (mu, x)
                    outcomes[got] += 1
                    for y in roster[c]:
                        if y.student == s:
                            continue
                        got = fits(
                            m, ccount, rcount, c, r,
                            at_c + 1, had_r + (y.resource == r),
                        )
                        swapped = Matching(rest - {y} | {x})
                        assert got == is_feasible(m, swapped), (mu, x, y)
                        outcomes[got] += 1
    assert min(outcomes.values()) > 1000


def test_individual_rationality_follows_the_lists():
    m = tiny_market()
    assert is_individually_rational(m, Matching([Contract(0, 0, 1)]))
    assert not is_individually_rational(m, Matching([Contract(0, 0, 0)]))
    assert is_individually_rational(m, Matching())


def test_with_student_preferences_is_a_copy():
    m = tiny_market()
    m2 = m.with_student_preferences(0, [(1, 1)])
    assert m.preferences[0] == ((0, 1), (1, 1))
    assert m2.preferences[0] == ((1, 1),)
    assert m2.preferences[1] == m.preferences[1]
    assert m != m2


@pytest.mark.parametrize("s", [-1, -2, 2])
def test_with_student_preferences_refuses_an_unknown_student(s):
    with pytest.raises(ValueError, match=f"^unknown student id {s}$"):
        tiny_market().with_student_preferences(s, [(1, 1)])


def market_listing(pair):
    """tiny_market's shape with student 0 listing pair above (0, 0)."""
    return Market(
        2, [1, 1], [1], [[0, 1]], [(0, 1), (1, 0)],
        [(pair, (0, 0)), ((0, 1), (1, 0))],
    )


ENTRY_POINTS = {
    **{name: (lambda m, run=run: run(m, seed=0)) for name, run in MECHANISMS.items()},
    "enumerate_matchings": enumerate_matchings,
    "census": census,
    "is_pareto_efficient": lambda m: is_pareto_efficient(m, Matching()),
    "audit": lambda m: audit(m, Matching([Contract(0, 0, 0)])),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize(
    "pair", [(-1, 0), (5, 0), (0, -1), (0, 2)],
    ids=["negative-college", "college-5", "negative-resource", "resource-2"],
)
def test_entry_points_refuse_a_list_naming_an_unknown_id(entry, pair):
    m = market_listing(pair)
    assert any(sev == "error" for sev, _ in validate_market(m))
    message = rf"^student 0 lists unknown pair \({pair[0]},{pair[1]}\)$"
    with pytest.raises(ValueError, match=message):
        ENTRY_POINTS[entry](m)


def test_the_refusal_names_the_first_listed_unknown_pair():
    m = Market(
        3, [1, 1], [1], [[0, 1]], [(0, 1, 2), (2, 1, 0)],
        [((0, 0),), ((1, 0), (9, 1), (0, 7)), ((0, 7),)],
    )
    assert m._unknown_pairs == {(9, 1), (0, 7)}
    with pytest.raises(ValueError, match=r"^student 1 lists unknown pair \(9,1\)$"):
        enumerate_matchings(m)


VALIDATION_EXPECTATIONS = {
    # fixture -> (n errors, n warnings); warnings are the presence-convention
    # notes for students who list (c, r) without a later (c, r0)
    "example1": (0, 2),
    "example2": (0, 2),
    "prop2": (0, 1),
    "prop4": (0, 1),
    "prop8_market1": (0, 2),
    "prop8_market2": (0, 0),
}


def test_fixture_validation_profile():
    for name, (n_err, n_warn) in VALIDATION_EXPECTATIONS.items():
        issues = validate_market(load_fixture(name))
        errors = [msg for sev, msg in issues if sev == "error"]
        warnings = [msg for sev, msg in issues if sev == "warning"]
        assert len(errors) == n_err, (name, errors)
        assert len(warnings) == n_warn, (name, warnings)


def test_validate_flags_structural_errors():
    bad_quota = Market(1, [0], [], [], [[0]], [[]])
    assert any(sev == "error" for sev, _ in validate_market(bad_quota))

    not_a_permutation = Market(2, [1], [], [], [[0, 0]], [[], []])
    assert any(sev == "error" for sev, _ in validate_market(not_a_permutation))

    unknown_college = Market(1, [1], [], [], [[0]], [[(5, 0)]])
    assert any(sev == "error" for sev, _ in validate_market(unknown_college))

    empty_region = Market(1, [1], [1], [[]], [[0]], [[]])
    assert any(sev == "error" for sev, _ in validate_market(empty_region))


def test_market_dict_round_trip():
    m = load_fixture("prop4")
    assert market_from_dict(market_to_dict(m)) == m
    assert loads_market(dumps_market(m)) == m


def test_market_serialization_is_canonical():
    m = load_fixture("example1")
    text = dumps_market(m)
    assert text == dumps_market(loads_market(text))  # stable under round trip
    assert text.endswith("\n")
    doc = json.loads(text)
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text


def round_trip_markets():
    """Every fixture, and markets with empty lists, no resources (R=0), one
    college (C=1) and no students."""
    for name in fixture_names():
        yield load_fixture(name)
    yield Market(3, [1, 2], [1], [[1]], [[0, 1, 2], [2, 1, 0]], [[], [(1, 1)], []])
    yield Market(2, [1, 1], [], [], [[0, 1], [1, 0]], [[(1, 0), (0, 0)], []])
    yield Market(2, [2], [1, 1], [[0], [0]], [[1, 0]], [[(0, 2), (0, 0)], []])
    yield Market(0, [1], [], [], [[]], [])
    yield generate_market(GenConfig(n_students=9, n_colleges=1, n_resources=0))


@pytest.mark.parametrize("m", list(round_trip_markets()))
def test_markets_round_trip_through_text(m):
    text = dumps_market(m)
    assert loads_market(text) == m
    assert dumps_market(loads_market(text)) == text


def plain_ints(m):
    """Every id and quota the market stores, as a flat list."""
    return [
        m.n_students,
        *m.college_quotas,
        *m.resource_quotas,
        *(c for reg in m.regions for c in reg),
        *(s for plist in m.priorities for s in plist),
        *(x for prefs in m.preferences for pair in prefs for x in pair),
    ]


def test_numpy_and_json_ids_are_stored_as_plain_ints():
    import numpy as np

    ref = tiny_market()
    i64 = np.int64
    from_numpy = Market(
        n_students=i64(2),
        college_quotas=np.array([1, 1]),
        resource_quotas=np.array([1]),
        regions=[np.array([0, 1])],
        priorities=np.array([[1, 0], [0, 1]]),
        preferences=[
            [(i64(0), i64(1)), (i64(1), i64(1))],
            [(i64(1), i64(1)), (i64(0), i64(1))],
        ],
    )
    from_json = Market(**json.loads(json.dumps(dict(
        n_students=2,
        college_quotas=[1, 1],
        resource_quotas=[1],
        regions=[[0, 1]],
        priorities=[[1, 0], [0, 1]],
        preferences=[[[0, 1], [1, 1]], [[1, 1], [0, 1]]],
    ))))
    # one numpy pair behind an equal plain pair, and one float id
    hidden = Market(2, [1, 1], [1], [[0, 1]], [[1, 0], [0, 1]],
                    [[(0, 1), (1, 1)], [(1, 1), (i64(0), 1.0)]])
    for m in (from_numpy, from_json, hidden):
        assert m == ref
        probe = m.with_student_preferences(1, [(i64(1), i64(1))])
        for market in (m, probe):
            assert all(type(x) is int for x in plain_ints(market)), market
            assert all(type(p) is tuple for ps in market.preferences for p in ps)
            text = dumps_market(market)
            assert dumps_market(loads_market(text)) == text
        assert dumps_market(m) == dumps_market(ref)
        assert validate_market(m) == validate_market(ref)


def test_generated_pairs_are_kept_not_copied():
    m = generate_market(GenConfig(n_students=30, n_colleges=4, n_resources=2))
    pairs = {id(p) for prefs in m.preferences for p in prefs}
    assert len(pairs) <= 4 * 3  # one shared tuple per (c, r)


def test_matching_list_round_trip():
    mu = Matching([Contract(2, 1, 0), Contract(0, 0, 1)])
    rows = matching_to_list(mu)
    assert rows == [[0, 0, 1], [2, 1, 0]]  # sorted
    assert matching_from_list(rows) == mu


def test_save_and_load(tmp_path):
    from capmatch.market import load_market, save_market

    m = load_fixture("prop2")
    path = tmp_path / "m.json"
    save_market(m, path)
    assert load_market(path) == m
