"""Block classification: waste kinds, envy kinds, domination, audits."""

import re

import pytest

from capmatch import (
    Contract,
    Market,
    Matching,
    audit,
    enumerate_matchings,
    envy_victims,
    fixture_names,
    is_direct_envy_blocking,
    is_dominated,
    is_envy_blocking,
    is_waste_blocking,
    load_fixture,
    prefers,
    waste_block_class,
)
from capmatch.blocking import BLOCK_CATEGORIES, RESOURCE, SEAT


def test_seat_block_moves_to_a_new_college():
    m = Market(
        n_students=1,
        college_quotas=[1, 1],
        resource_quotas=[],
        regions=[],
        priorities=[[0], [0]],
        preferences=[[(0, 0), (1, 0)]],
    )
    mu = Matching([Contract(0, 1, 0)])
    x = Contract(0, 0, 0)
    assert waste_block_class(m, mu, x) == SEAT
    assert is_waste_blocking(m, mu, x)
    assert not is_envy_blocking(m, mu, x)


def test_resource_block_swaps_resource_in_place():
    m = Market(
        n_students=1,
        college_quotas=[1],
        resource_quotas=[1],
        regions=[[0]],
        priorities=[[0]],
        preferences=[[(0, 1), (0, 0)]],
    )
    mu = Matching([Contract(0, 0, 0)])
    x = Contract(0, 0, 1)
    # the college is full, but the student vacates her own seat: only the
    # resource unit is actually demanded
    assert waste_block_class(m, mu, x) == RESOURCE


def test_waste_requires_improvement():
    m = Market(
        n_students=1,
        college_quotas=[1],
        resource_quotas=[1],
        regions=[[0]],
        priorities=[[0]],
        preferences=[[(0, 0), (0, 1)]],
    )
    mu = Matching([Contract(0, 0, 0)])  # already her top choice
    assert waste_block_class(m, mu, Contract(0, 0, 1)) is None


def test_direct_envy_same_resource():
    m = Market(
        n_students=2,
        college_quotas=[1],
        resource_quotas=[1],
        regions=[[0]],
        priorities=[[0, 1]],
        preferences=[[(0, 1)], [(0, 1)]],
    )
    mu = Matching([Contract(1, 0, 1)])
    x = Contract(0, 0, 1)
    assert envy_victims(m, mu, x) == (Contract(1, 0, 1),)
    assert is_direct_envy_blocking(m, mu, x)
    # the college seat count never blocks a same-college swap: the victim
    # leaves as the envier enters
    assert not is_waste_blocking(m, mu, x)


def test_demanding_the_empty_resource_is_always_direct():
    m = Market(
        n_students=2,
        college_quotas=[1],
        resource_quotas=[1],
        regions=[[0]],
        priorities=[[0, 1]],
        preferences=[[(0, 0)], [(0, 1)]],
    )
    mu = Matching([Contract(1, 0, 1)])
    x = Contract(0, 0, 0)
    assert is_envy_blocking(m, mu, x)
    assert is_direct_envy_blocking(m, mu, x)


def test_indirect_envy_demands_a_third_resource():
    m = Market(
        n_students=2,
        college_quotas=[1],
        resource_quotas=[1, 1],
        regions=[[0], [0]],
        priorities=[[0, 1]],
        preferences=[[(0, 2)], [(0, 1)]],
    )
    mu = Matching([Contract(1, 0, 1)])
    x = Contract(0, 0, 2)
    assert is_envy_blocking(m, mu, x)
    assert not is_direct_envy_blocking(m, mu, x)


def test_envy_respects_regions():
    # resource 1 can only be placed at college 1, so demanding it at
    # college 0 cannot block anything
    m = Market(
        n_students=2,
        college_quotas=[1, 1],
        resource_quotas=[1],
        regions=[[1]],
        priorities=[[0, 1], [0, 1]],
        preferences=[[(0, 1)], [(0, 0)]],
    )
    mu = Matching([Contract(1, 0, 0)])
    assert not is_envy_blocking(m, mu, Contract(0, 0, 1))


def test_envy_swap_cannot_overdraw_a_resource():
    # the demanded unit is held at another college in the same region, so
    # evicting the victim frees a seat but not the resource
    m = Market(
        n_students=3,
        college_quotas=[1, 1],
        resource_quotas=[1],
        regions=[[0, 1]],
        priorities=[[0, 1, 2], [0, 1, 2]],
        preferences=[[(0, 1)], [(0, 0)], [(1, 1)]],
    )
    mu = Matching([Contract(1, 0, 0), Contract(2, 1, 1)])
    assert not is_envy_blocking(m, mu, Contract(0, 0, 1))


def test_evicting_the_resource_holder_frees_the_unit():
    # same setup, but now the victim herself holds the unit
    m = Market(
        n_students=2,
        college_quotas=[1],
        resource_quotas=[1],
        regions=[[0]],
        priorities=[[0, 1]],
        preferences=[[(0, 1)], [(0, 1)]],
    )
    mu = Matching([Contract(1, 0, 1)])
    assert is_envy_blocking(m, mu, Contract(0, 0, 1))


def test_dominated_waste_block_with_witness():
    # a resource-kind waste block whose execution hands a previously clean
    # contract a direct envy opportunity
    m = load_fixture("prop2")
    mu = Matching([Contract(0, 0, 0), Contract(2, 1, 0)])
    x = Contract(0, 0, 1)
    assert waste_block_class(m, mu, x) == RESOURCE
    dominated, witness = is_dominated(m, mu, x)
    assert dominated
    assert witness == Contract(1, 0, 1)
    # the witness lives at the same college and demands the same resource
    assert witness.college == x.college and witness.resource == x.resource


def test_undominated_waste_block():
    m = load_fixture("example1")
    mu = Matching()
    x = Contract(0, 0, 1)
    assert waste_block_class(m, mu, x) == SEAT
    assert is_dominated(m, mu, x) == (False, None)


CONTRACT_CHECKS = (
    envy_victims,
    is_envy_blocking,
    is_direct_envy_blocking,
    waste_block_class,
    is_waste_blocking,
    is_dominated,
)


def test_preconditions_raise():
    """Every public check refuses a bad matching before it looks at x, and
    names the first fault it finds."""
    m = load_fixture("example1")
    fine = Contract(0, 0, 1)  # acceptable, and a waste block of the empty matching
    bad_matchings = [
        (Matching([Contract(5, 0, 1)]), "unknown student id 5"),
        (Matching([Contract(0, 2, 1)]), "unknown college id 2"),
        (Matching([Contract(0, 0, 2)]), "unknown resource id 2"),
        (Matching([Contract(0, 0, 1), Contract(1, 1, 1)]), "matching is not feasible"),
        # (0, 0) is not on s0's list
        (Matching([Contract(0, 0, 0)]), "matching is not individually rational"),
    ]
    for mu, message in bad_matchings:
        with _raises(message):
            audit(m, mu)
        for check in CONTRACT_CHECKS:
            # the matching is checked first, even when x is bad too
            for x in (fine, Contract(9, 0, 1)):
                with _raises(message):
                    check(m, mu, x)

    mu = Matching([Contract(1, 0, 1)])
    bad_contracts = [
        (Contract(2, 0, 1), "references unknown ids"),
        (Contract(-1, 0, 1), "references unknown ids"),
        (Contract(0, 2, 1), "references unknown ids"),
        (Contract(0, -1, 1), "references unknown ids"),
        (Contract(0, 0, 2), "references unknown resource"),
        (Contract(0, 0, -1), "references unknown resource"),
        (Contract(0, 0, 0), "is not acceptable to its student"),
        (Contract(1, 0, 1), "is already in the matching"),
    ]
    for x, tail in bad_contracts:
        for check in CONTRACT_CHECKS:
            with _raises(f"contract {x} {tail}"):
                check(m, mu, x)

    # an acceptable contract that adds no waste: c1 is full under mu
    x = Contract(0, 1, 1)
    assert waste_block_class(m, mu, x) is None
    with _raises(f"contract {x} does not waste-block this matching"):
        is_dominated(m, mu, x)


def _raises(message):
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


def test_per_contract_checks_agree_with_the_audit():
    """On every census matching of every fixture, each acceptable contract
    outside mu gets from the per-contract checks what audit says of it."""
    checked = {"waste": 0, "envy": 0, "dominated": 0, "none": 0, "not preferred": 0}
    for name in fixture_names():
        m = load_fixture(name)
        for mu in enumerate_matchings(m):
            rep = audit(m, mu)
            waste = dict(rep.waste_witnesses)
            envy = {x: (victims, direct) for x, victims, direct in rep.envy_witnesses}
            direct_blocks = {x for x, (_v, direct) in envy.items() if direct}
            dominated = []
            for s in range(m.n_students):
                for c, r in m.preferences[s]:
                    x = Contract(s, c, r)
                    if x in mu:
                        continue
                    kind = waste_block_class(m, mu, x)
                    assert kind == waste.get(x), (name, mu, x)
                    assert is_waste_blocking(m, mu, x) == (x in waste)
                    victims, direct = envy.get(x, ((), False))
                    assert envy_victims(m, mu, x) == victims, (name, mu, x)
                    assert is_envy_blocking(m, mu, x) == bool(victims)
                    assert is_direct_envy_blocking(m, mu, x) == direct, (name, mu, x)
                    if not prefers(m, s, (c, r), _pair(mu.student_contract(s))):
                        assert (kind, victims, direct) == (None, (), False)
                        checked["not preferred"] += 1
                    if kind is None:
                        checked["envy" if victims else "none"] += 1
                        continue
                    checked["waste"] += 1
                    got, witness = is_dominated(m, mu, x)
                    assert got == (witness is not None)
                    dominated.append(got)
                    if got:
                        checked["dominated"] += 1
                        _assert_dominates(m, mu, x, witness, waste, direct_blocks)
            if rep.direct_envy_free:
                assert rep.direct_envy_stable == all(dominated), (name, mu)
    assert min(checked.values()) > 0, checked


def _pair(x):
    return None if x is None else (x.college, x.resource)


def _assert_dominates(m, mu, x, w, waste, direct_blocks):
    """w is clean under mu, and direct-envy-blocks mu once x is granted."""
    assert (w.college, w.resource) == (x.college, x.resource)
    assert w not in waste and w not in direct_blocks
    held = _pair(mu.student_contract(w.student))
    assert prefers(m, w.student, (w.college, w.resource), held)
    old = mu.student_contract(x.student)
    granted = Matching([y for y in mu if y != old] + [x])
    assert is_direct_envy_blocking(m, granted, w)


def test_audit_counts_on_a_known_matching():
    """One matching of the three-college fixture admits s1 plainly at c1 and
    s3 plainly at c2; its audit is pinned in full."""
    m = load_fixture("prop2")
    mu = Matching([Contract(0, 0, 0), Contract(2, 1, 0)])
    rep = audit(m, mu)
    assert rep.counts == {"resource": 1, "seat": 0, "direct_envy": 0, "indirect_envy": 1}
    assert rep.total == 2
    # the flags come in field order
    assert list(rep.flags.items()) == [
        ("stable", False),
        ("envy_free", False),
        ("direct_envy_free", True),
        ("non_wasteful", False),
        ("seat_efficient", True),
        ("resource_efficient", False),
        ("weakly_stable", False),
        ("direct_envy_stable", True),
    ]
    assert rep.waste_witnesses == ((Contract(0, 0, 1), RESOURCE),)
    # envy witness rows carry (contract, victims, direct?)
    assert rep.envy_witnesses == (
        (Contract(1, 0, 1), (Contract(0, 0, 0),), False),
    )


def test_audit_total_is_the_row_sum():
    m = load_fixture("example1")
    for mu in (Matching(), Matching([Contract(0, 0, 1)])):
        rep = audit(m, mu)
        assert rep.total == sum(rep.counts.values())
        assert set(rep.counts) == set(BLOCK_CATEGORIES)


def test_audit_of_the_empty_matching_counts_every_first_choice():
    m = load_fixture("example1")
    rep = audit(m, Matching())
    assert rep.total == 4
    assert rep.counts["seat"] == 4  # both students, both colleges, all addable
    assert not rep.stable and not rep.direct_envy_stable


def test_report_to_dict_shapes():
    m = load_fixture("example1")
    rep = audit(m, Matching())
    d = rep.to_dict()
    assert d["total"] == 4
    assert "waste_witnesses" not in d
    dv = rep.to_dict(verbose_witnesses=True)
    assert len(dv["waste_witnesses"]) == 4
    for row in dv["waste_witnesses"]:
        assert row["kind"] in (SEAT, RESOURCE)


def test_audit_ignores_contracts_below_the_current_assignment():
    # student 0 already holds her first choice; her lower-ranked listed
    # pairs must not be counted as blocks of any kind
    m = load_fixture("prop2")
    mu = Matching([Contract(0, 0, 1)])
    rep = audit(m, mu)
    blocked = [x for x, _ in rep.waste_witnesses] + [x for x, _, _ in rep.envy_witnesses]
    assert all(x.student != 0 for x in blocked)


def test_a_student_her_college_does_not_rank_envies_no_one():
    # the college ranks only student 0, so student 1, who wants its one seat,
    # has no standing to envy the holder; the market fails validation but
    # still builds and audits
    m = Market(2, [1], [], [], [[0]], [[(0, 0)], [(0, 0)]])
    mu = Matching([Contract(0, 0, 0)])
    rep = audit(m, mu)
    assert rep.total == 0 and rep.envy_witnesses == ()
    assert rep.stable and rep.direct_envy_stable
    assert envy_victims(m, mu, Contract(1, 0, 0)) == ()
    assert not is_envy_blocking(m, mu, Contract(1, 0, 0))
