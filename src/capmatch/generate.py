"""Synthetic market generators.

Preference regimes control how much students and colleges agree:

  none                    independent uniform orders on both sides
  student_semi            students broadly agree (higher-id colleges and
                          higher-id resources are better) but individual
                          orders are sampled from that partial agreement
  student_full            students draw uniform random topological orders of
                          the common desirability grid
  college_full            all colleges share one priority order (higher
                          student id = better); students are as in `none`
  student_and_college_full  both of the above

Student lists are full orders over all (college, resource) pairs, with the
convention that a college's empty-resource pair comes after its non-empty
pairs, then truncated at a uniformly random position (possibly keeping
nothing, possibly everything). Truncation can cut a (c, empty) pair while
keeping (c, r); that only trips the validator's warning level, not an error.

Quota budgets scale with the student count: the college-side budget and each
resource kind's quota are |S|, 2|S|, or |S|//2 (balanced / up / down).

One seeded `_draws.Draws` stream makes a market, in this order: quotas,
regions, priorities, preference lists. It draws the numbers numpy's
`default_rng(seed)` would draw for the same calls, from PCG64's raw words,
which numpy's compatibility policy fixes; no `Generator` method is called.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import asdict, dataclass, fields
from typing import Optional, Sequence

from ._draws import Draws
from .market import EMPTY_RESOURCE, Market

ALIGNMENTS = (
    "none",
    "student_semi",
    "student_full",
    "college_full",
    "student_and_college_full",
)
BALANCES = ("balanced", "up", "down")
QUOTA_SPLITS = ("equal", "random")
TRUNCATIONS = ("uniform", "none")
SEMI_SAMPLERS = ("quality", "uniform")

# GenConfig's fields that name one of a fixed set of values, checked in
# field order
_CHOICES = {
    "alignment": ALIGNMENTS,
    "college_balance": BALANCES,
    "resource_balance": BALANCES,
    "quota_split_scheme": QUOTA_SPLITS,
    "truncation": TRUNCATIONS,
    "semi_sampler": SEMI_SAMPLERS,
}


def check_config_keys(d, cls, what: str) -> None:
    """Raise ValueError unless d is a dict whose keys all name fields of the
    dataclass cls; the message names the first unknown key."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} config must be an object, not {type(d).__name__}")
    names = [f.name for f in fields(cls)]
    unknown = [key for key in d if key not in names]
    if unknown:
        raise ValueError(
            f"unknown {what} config key {unknown[0]!r} "
            f"(expected one of: {', '.join(names)})"
        )


def _require_type(what: str, config, names, kind: type, optional=False) -> None:
    """Raise ValueError naming the first of config's fields `names` whose
    value is not a `kind` (a bool is never one; None passes if optional)."""
    for name in names:
        value = getattr(config, name)
        if value is None and optional:
            continue
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValueError(
                f"{what} config key {name!r} must be {kind.__name__}, "
                f"not {type(value).__name__}"
            )


@dataclass(frozen=True)
class GenConfig:
    """Shape and sampling knobs for one synthetic market.

    region_scheme is "all" (every resource usable everywhere), "random:k"
    (each resource gets an independent uniform k-subset of colleges), or
    "partition" (colleges split into disjoint roughly equal regions, one per
    resource). quota_split_scheme spreads the college-side budget equally
    (remainder to the lowest ids) or as a uniform random composition with at
    least one seat each.
    """

    n_students: int = 100
    n_colleges: int = 10
    n_resources: int = 5
    alignment: str = "none"
    college_balance: str = "balanced"
    resource_balance: str = "balanced"
    region_scheme: str = "all"
    quota_split_scheme: str = "equal"
    truncation: str = "uniform"
    semi_sampler: str = "quality"
    seed: Optional[int] = None

    def __post_init__(self):
        shape = ("n_students", "n_colleges", "n_resources")
        _require_type("market", self, shape, int)
        _require_type("market", self, ("seed",), int, optional=True)
        # the choice fields and region_scheme are strings, checked in field order
        text = [
            f.name
            for f in fields(self)
            if f.name in _CHOICES or f.name == "region_scheme"
        ]
        _require_type("market", self, text, str)
        for name, allowed in _CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"unknown {name} {value!r}")
        if self.region_scheme != "all" and self.region_scheme != "partition":
            if not self.region_scheme.startswith("random:"):
                raise ValueError(f"unknown region_scheme {self.region_scheme!r}")
            k = self.region_scheme.split(":", 1)[1]
            try:
                size = int(k)
            except ValueError:
                raise ValueError(
                    "market config key 'region_scheme' needs an integer size "
                    f"after 'random:', not {k!r}"
                ) from None
            if size < 1:
                raise ValueError("random region size must be >= 1")
        if self.seed is not None and self.seed < 0:
            raise ValueError("market config key 'seed' must be >= 0")
        if self.n_students < 1 or self.n_colleges < 1 or self.n_resources < 0:
            raise ValueError("market shape out of range")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "GenConfig":
        """Raises ValueError on a non-object or an unknown key."""
        check_config_keys(d, GenConfig, "market")
        return GenConfig(**d)


def _budget(n_students: int, balance: str) -> int:
    if balance == "balanced":
        return n_students
    if balance == "up":
        return 2 * n_students
    return n_students // 2


def _college_quotas(cfg: GenConfig, draws: Draws) -> list[int]:
    total = _budget(cfg.n_students, cfg.college_balance)
    c = cfg.n_colleges
    if total < c:
        raise ValueError(
            f"college budget {total} cannot give {c} colleges a seat each"
        )
    if cfg.quota_split_scheme == "equal":
        base, rem = divmod(total, c)
        return [base + (1 if i < rem else 0) for i in range(c)]
    # uniform random composition of `total` into c parts >= 1 (stars and bars)
    cuts = [0, *sorted(x + 1 for x in draws.choice(total - 1, c - 1)), total]
    return [b - a for a, b in zip(cuts, cuts[1:])]


def _regions(cfg: GenConfig, draws: Draws) -> list[list[int]]:
    c, r = cfg.n_colleges, cfg.n_resources
    if cfg.region_scheme == "all":
        return [list(range(c)) for _ in range(r)]
    if cfg.region_scheme == "partition":
        if r > c:
            raise ValueError("cannot partition fewer colleges than resources")
        if not r:
            return []  # drawing no permutation, which would shift every later draw
        # r runs of the shuffled colleges, the first c % r one longer
        order = draws.permutation(c)
        base, extra = divmod(c, r)
        ends = [i * base + min(i, extra) for i in range(r + 1)]
        return [sorted(order[a:b]) for a, b in zip(ends, ends[1:])]
    k = int(cfg.region_scheme.split(":", 1)[1])
    if not (1 <= k <= c):
        raise ValueError(f"region size {k} out of range 1..{c}")
    return [sorted(draws.choice(c, k)) for _ in range(r)]


def _priorities(cfg: GenConfig, draws: Draws) -> list[list[int]]:
    n, c = cfg.n_students, cfg.n_colleges
    if cfg.alignment in ("college_full", "student_and_college_full"):
        common = list(range(n - 1, -1, -1))  # higher id = better
        return [list(common) for _ in range(c)]
    return [draws.permutation(n) for _ in range(c)]


@functools.lru_cache(maxsize=64)
def _unaligned_pairs(c: int, r: int):
    """The slot template of _unaligned_order, and per college its non-empty
    pairs and its empty pair, built once per shape."""
    slots = tuple(ci for ci in range(c) for _ in range(r + 1))
    pairs = tuple(tuple((ci, ri) for ri in range(1, r + 1)) for ci in range(c))
    return slots, pairs, tuple((ci, EMPTY_RESOURCE) for ci in range(c))


def _unaligned_order(cfg: GenConfig, draws: Draws) -> list[tuple[int, int]]:
    """Uniform order over all pairs with each college's empty pair last.

    Equivalent to picking, independently and uniformly, an interleaving of
    the colleges' pair slots and a within-college order of the non-empty
    pairs: together those choices biject onto the valid full orders. The
    draws are those of numpy's shuffle of the slot array, then of each
    college's resources 1..r in college order.
    """
    slots, pairs, empties = _unaligned_pairs(cfg.n_colleges, cfg.n_resources)
    slots = list(slots)
    draws.shuffle(slots)
    nexts = []
    for own, empty in zip(pairs, empties):
        own = list(own)
        draws.shuffle(own)
        own.append(empty)
        nexts.append(iter(own).__next__)
    return [nexts[ci]() for ci in slots]


def _grid_order(
    cfg: GenConfig, draws: Draws, weights: Optional[Sequence[float]]
) -> list[tuple[int, int]]:
    """Random topological order of the desirability grid, best first.

    The grid orders pairs componentwise: (c, r) beats (c', r') when c >= c'
    and r >= r' (ids double as quality scores, the empty resource is worst).
    Elements enter the frontier once everything above them has been emitted;
    the frontier never holds two pairs of one college, so college weights
    give an unambiguous pick distribution. weights=None picks uniformly.

    Each college emits its pairs from resource r down, so the frontier is
    kept as its colleges in ascending order (the order of the sorted pairs),
    and college ci's frontier pair is (ci, top[ci] - 1). A weighted pick
    inverts the cumulative distribution the way Generator.choice does: p =
    w / sum(w), a running sum normalised by its last entry, one
    draws.random() draw. It draws the same stream and picks the same pair as
    Generator.choice whenever the weight sum is exact, as it is for integer
    weights.
    """
    c, r = cfg.n_colleges, cfg.n_resources
    top = [r + 1] * c  # college ci has emitted its pairs top[ci]..r
    frontier = [c - 1]
    out: list[tuple[int, int]] = []
    while frontier:
        if weights is None or len(frontier) == 1:
            k = draws.integers(len(frontier))
        else:
            w = [weights[ci] for ci in frontier]
            total = sum(w)
            cdf = list(itertools.accumulate(wi / total for wi in w))
            k = bisect.bisect_right([p / cdf[-1] for p in cdf], draws.random())
        ci = frontier.pop(k)
        ri = top[ci] - 1
        top[ci] = ri
        out.append((ci, ri))
        if ci > 0 and top[ci - 1] == ri + 1:
            bisect.insort(frontier, ci - 1)
        if ri > 0 and (ci + 1 == c or top[ci + 1] < ri):
            bisect.insort(frontier, ci)
    return out


def _preferences(cfg: GenConfig, draws: Draws) -> list[list[tuple[int, int]]]:
    """Every student's list, truncated as cfg says; each list's truncation
    is drawn right after its order."""
    if cfg.alignment in ("none", "college_full"):
        sample = functools.partial(_unaligned_order, cfg, draws)
    else:
        weights = None
        if cfg.alignment == "student_semi" and cfg.semi_sampler == "quality":
            weights = range(1, cfg.n_colleges + 1)
        sample = functools.partial(_grid_order, cfg, draws, weights)

    prefs = []
    for _ in range(cfg.n_students):
        order = sample()
        if cfg.truncation == "uniform":
            order = order[: draws.integers(len(order) + 1)]
        prefs.append(order)
    return prefs


def generate_market(cfg: GenConfig, seed: Optional[int] = None) -> Market:
    """Sample one market. An explicit seed overrides the config's seed.

    The same config and seed always produce the same market, byte for byte
    once serialized.
    """
    draws = Draws(cfg.seed if seed is None else seed)
    college_quotas = _college_quotas(cfg, draws)
    resource_quotas = [
        _budget(cfg.n_students, cfg.resource_balance)
        for _ in range(cfg.n_resources)
    ]
    if cfg.n_resources and min(resource_quotas, default=1) < 1:
        raise ValueError("resource budget leaves a resource without units")
    regions = _regions(cfg, draws)
    priorities = _priorities(cfg, draws)
    preferences = _preferences(cfg, draws)
    return Market(
        n_students=cfg.n_students,
        college_quotas=college_quotas,
        resource_quotas=resource_quotas,
        regions=regions,
        priorities=priorities,
        preferences=preferences,
    )
