"""Synthetic market sampling: budgets, regimes, alignment structure."""

import itertools

import numpy as np
import pytest

from capmatch import GenConfig, generate_market, validate_market
from capmatch._draws import Draws
from capmatch.generate import (
    ALIGNMENTS,
    _grid_order,
    _unaligned_order,
    _unaligned_pairs,
)
from capmatch.market import dumps_market


def test_config_validation():
    GenConfig(region_scheme="random:3")
    with pytest.raises(ValueError):
        GenConfig(alignment="sideways")
    with pytest.raises(ValueError):
        GenConfig(region_scheme="random:zero")
    with pytest.raises(ValueError, match="^random region size must be >= 1$"):
        GenConfig(region_scheme="random:0")
    with pytest.raises(ValueError):
        GenConfig(region_scheme="clusters")
    with pytest.raises(ValueError):
        GenConfig(truncation="poisson")
    with pytest.raises(ValueError):
        GenConfig(n_students=0)


def test_config_round_trip():
    cfg = GenConfig(n_students=12, alignment="student_semi", region_scheme="random:2")
    assert GenConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize(
    "field",
    (
        "alignment",
        "college_balance",
        "resource_balance",
        "quota_split_scheme",
        "truncation",
        "semi_sampler",
    ),
)
def test_a_bad_choice_names_its_field_and_value(field):
    with pytest.raises(ValueError) as exc:
        GenConfig(**{field: "sideways"})
    assert str(exc.value) == f"unknown {field} 'sideways'"


def test_same_seed_same_market():
    cfg = GenConfig(n_students=30, n_colleges=4, n_resources=2)
    a = generate_market(cfg, seed=99)
    b = generate_market(cfg, seed=99)
    assert dumps_market(a) == dumps_market(b)
    assert dumps_market(generate_market(cfg, seed=100)) != dumps_market(a)


def test_seed_in_config_or_argument():
    cfg = GenConfig(n_students=10, n_colleges=2, n_resources=1, seed=5)
    assert generate_market(cfg) == generate_market(GenConfig(
        n_students=10, n_colleges=2, n_resources=1), seed=5)


def test_every_regime_yields_a_valid_market():
    grid = itertools.product(
        ("none", "student_semi", "student_full", "college_full",
         "student_and_college_full"),
        ("balanced", "up", "down"),
        ("all", "random:2", "partition"),
        ("equal", "random"),
    )
    for i, (align, balance, regions, split) in enumerate(grid):
        cfg = GenConfig(
            n_students=16, n_colleges=4, n_resources=2,
            alignment=align, college_balance=balance, resource_balance=balance,
            region_scheme=regions, quota_split_scheme=split,
        )
        m = generate_market(cfg, seed=1000 + i)
        issues = [x for x in validate_market(m) if x[0] == "error"]
        assert issues == [], (align, balance, regions, split, issues)


def test_budget_accounting():
    for balance, total in (("balanced", 60), ("up", 120), ("down", 30)):
        cfg = GenConfig(
            n_students=60, n_colleges=7, n_resources=3,
            college_balance=balance, resource_balance=balance,
        )
        m = generate_market(cfg, seed=4)
        assert sum(m.college_quotas) == total, balance
        assert all(q == total for q in m.resource_quotas)
        assert all(q >= 1 for q in m.college_quotas)


def test_equal_split_gives_remainder_to_low_ids():
    cfg = GenConfig(n_students=10, n_colleges=4, n_resources=0)
    m = generate_market(cfg, seed=0)
    assert list(m.college_quotas) == [3, 3, 2, 2]


def test_random_split_is_a_composition():
    for seed in range(10):
        cfg = GenConfig(
            n_students=20, n_colleges=5, n_resources=0, quota_split_scheme="random",
        )
        m = generate_market(cfg, seed=seed)
        assert sum(m.college_quotas) == 20
        assert min(m.college_quotas) >= 1


def test_down_balance_can_starve_the_split():
    cfg = GenConfig(n_students=4, n_colleges=3, n_resources=0,
                    college_balance="down")  # budget 2 < 3 colleges
    with pytest.raises(ValueError):
        generate_market(cfg, seed=0)


def test_down_balance_can_leave_a_resource_without_units():
    cfg = GenConfig(n_students=1, n_colleges=1, resource_balance="down")
    with pytest.raises(ValueError, match="^resource budget leaves a resource"):
        generate_market(cfg, seed=0)  # budget 1 // 2 = 0 units


def test_region_schemes():
    base = dict(n_students=12, n_colleges=6, n_resources=3)
    m = generate_market(GenConfig(**base, region_scheme="all"), seed=1)
    assert all(m.region(r) == frozenset(range(6)) for r in (1, 2, 3))

    m = generate_market(GenConfig(**base, region_scheme="random:2"), seed=2)
    assert all(len(m.region(r)) == 2 for r in (1, 2, 3))
    with pytest.raises(ValueError, match=r"^region size 7 out of range 1\.\.6$"):
        generate_market(GenConfig(**base, region_scheme="random:7"), seed=2)

    m = generate_market(GenConfig(**base, region_scheme="partition"), seed=3)
    parts = [m.region(r) for r in (1, 2, 3)]
    assert set().union(*parts) == set(range(6))
    assert sum(len(p) for p in parts) == 6  # disjoint

    with pytest.raises(ValueError):
        generate_market(
            GenConfig(n_students=4, n_colleges=2, n_resources=3,
                      region_scheme="partition"), seed=0)


def test_college_full_alignment_shares_one_priority_order():
    cfg = GenConfig(n_students=9, n_colleges=3, n_resources=1,
                    alignment="college_full")
    m = generate_market(cfg, seed=7)
    common = tuple(range(8, -1, -1))  # highest student id ranked first
    assert all(p == common for p in m.priorities)
    # the combined regime keeps the same college side
    cfg2 = GenConfig(n_students=9, n_colleges=3, n_resources=1,
                     alignment="student_and_college_full")
    m2 = generate_market(cfg2, seed=7)
    assert all(p == common for p in m2.priorities)


def test_unaligned_priorities_differ():
    cfg = GenConfig(n_students=30, n_colleges=4, n_resources=1, alignment="none")
    m = generate_market(cfg, seed=5)
    assert len(set(m.priorities)) > 1


def test_student_full_respects_both_chains():
    """In every aligned list, a higher college id precedes a lower one at the
    same resource, and a higher resource id precedes a lower one at the same
    college (the empty resource is the floor)."""
    cfg = GenConfig(n_students=40, n_colleges=4, n_resources=2,
                    alignment="student_full", truncation="none")
    m = generate_market(cfg, seed=21)
    for prefs in m.preferences:
        assert len(prefs) == 4 * 3  # untruncated: every pair appears
        pos = {pair: i for i, pair in enumerate(prefs)}
        for (c, r), (c2, r2) in itertools.product(pos, pos):
            if c >= c2 and r >= r2 and (c, r) != (c2, r2):
                assert pos[(c, r)] < pos[(c2, r2)], prefs


def test_unaligned_lists_put_the_empty_pair_last_per_college():
    cfg = GenConfig(n_students=40, n_colleges=3, n_resources=2,
                    alignment="none", truncation="none")
    m = generate_market(cfg, seed=8)
    for prefs in m.preferences:
        assert len(prefs) == 3 * 3
        pos = {pair: i for i, pair in enumerate(prefs)}
        for c in range(3):
            assert all(pos[(c, r)] < pos[(c, 0)] for r in (1, 2))


def test_uniform_truncation_spreads_lengths():
    cfg = GenConfig(n_students=300, n_colleges=3, n_resources=1,
                    alignment="none", truncation="uniform")
    m = generate_market(cfg, seed=13)
    lengths = sorted({len(p) for p in m.preferences})
    assert lengths[0] == 0 and lengths[-1] == 6
    assert len(lengths) >= 5  # most cut points show up across 300 draws


def test_grid_sampler_weights_shift_the_second_pick():
    """With two colleges and one resource, the second grid element is either
    (c0, r1) or (c1, r0). Quality weights (1, 2) should pick the better
    college's pair about twice as often; the uniform sampler about half."""
    cfg = GenConfig(n_students=1, n_colleges=2, n_resources=1)
    draws = Draws(42)
    n = 4000
    weighted = sum(
        _grid_order(cfg, draws, [1.0, 2.0])[1] == (1, 0) for _ in range(n)
    )
    uniform = sum(_grid_order(cfg, draws, None)[1] == (1, 0) for _ in range(n))
    assert abs(weighted / n - 2 / 3) < 0.03
    assert abs(uniform / n - 1 / 2) < 0.03


def test_grid_and_unaligned_orders_are_permutations_of_all_pairs():
    cfg = GenConfig(n_students=1, n_colleges=3, n_resources=2)
    draws = Draws(0)
    every = {(c, r) for c in range(3) for r in range(3)}
    for _ in range(50):
        assert set(_grid_order(cfg, draws, None)) == every
        assert set(_unaligned_order(draws, *_unaligned_pairs(3, 2))) == every


def test_resource_free_configs_work():
    cfg = GenConfig(n_students=10, n_colleges=3, n_resources=0)
    m = generate_market(cfg, seed=2)
    assert m.n_resources == 0
    assert all(r == 0 for prefs in m.preferences for (_, r) in prefs)


def test_generation_draws_through_no_numpy_generator(monkeypatch):
    """Every market byte comes from one `Draws` stream: with numpy's
    Generator unusable, every regime, sampler, region scheme, quota split
    and truncation still generates."""

    def refuse(*args, **kwargs):
        raise AssertionError("generate_market reached numpy's Generator")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "Generator", refuse)
    grid = itertools.product(
        ALIGNMENTS,
        ("quality", "uniform"),
        ("all", "random:2", "partition"),
        ("equal", "random"),
        ("uniform", "none"),
    )
    for align, sampler, regions, split, truncation in grid:
        cfg = GenConfig(
            n_students=12, n_colleges=4, n_resources=3, alignment=align,
            semi_sampler=sampler, region_scheme=regions,
            quota_split_scheme=split, truncation=truncation,
        )
        generate_market(cfg, seed=3)
    generate_market(GenConfig(n_resources=0, region_scheme="partition"), seed=3)
