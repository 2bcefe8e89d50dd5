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
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from .market import Market

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
        if self.alignment not in ALIGNMENTS:
            raise ValueError(f"unknown alignment {self.alignment!r}")
        if self.college_balance not in BALANCES:
            raise ValueError(f"unknown college_balance {self.college_balance!r}")
        if self.resource_balance not in BALANCES:
            raise ValueError(f"unknown resource_balance {self.resource_balance!r}")
        if self.quota_split_scheme not in QUOTA_SPLITS:
            raise ValueError(
                f"unknown quota_split_scheme {self.quota_split_scheme!r}"
            )
        if self.truncation not in TRUNCATIONS:
            raise ValueError(f"unknown truncation {self.truncation!r}")
        if self.semi_sampler not in SEMI_SAMPLERS:
            raise ValueError(f"unknown semi_sampler {self.semi_sampler!r}")
        if self.region_scheme != "all" and self.region_scheme != "partition":
            if not self.region_scheme.startswith("random:"):
                raise ValueError(f"unknown region_scheme {self.region_scheme!r}")
            if int(self.region_scheme.split(":", 1)[1]) < 1:
                raise ValueError("random region size must be >= 1")
        if self.n_students < 1 or self.n_colleges < 1 or self.n_resources < 0:
            raise ValueError("market shape out of range")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "GenConfig":
        return GenConfig(**d)


def _budget(n_students: int, balance: str) -> int:
    if balance == "balanced":
        return n_students
    if balance == "up":
        return 2 * n_students
    return n_students // 2


def _college_quotas(cfg: GenConfig, rng) -> list[int]:
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
    cuts = np.sort(rng.choice(total - 1, size=c - 1, replace=False)) + 1
    bounds = np.concatenate(([0], cuts, [total]))
    return [int(b - a) for a, b in zip(bounds[:-1], bounds[1:])]


def _regions(cfg: GenConfig, rng) -> list[list[int]]:
    c, r = cfg.n_colleges, cfg.n_resources
    if cfg.region_scheme == "all":
        return [list(range(c)) for _ in range(r)]
    if cfg.region_scheme == "partition":
        if r > c:
            raise ValueError("cannot partition fewer colleges than resources")
        shuffled = [int(x) for x in rng.permutation(c)]
        chunks = np.array_split(shuffled, r) if r else []
        return [sorted(int(x) for x in chunk) for chunk in chunks]
    k = int(cfg.region_scheme.split(":", 1)[1])
    if not (1 <= k <= c):
        raise ValueError(f"region size {k} out of range 1..{c}")
    return [
        sorted(int(x) for x in rng.choice(c, size=k, replace=False))
        for _ in range(r)
    ]


def _priorities(cfg: GenConfig, rng) -> list[list[int]]:
    n, c = cfg.n_students, cfg.n_colleges
    if cfg.alignment in ("college_full", "student_and_college_full"):
        common = list(range(n - 1, -1, -1))  # higher id = better
        return [list(common) for _ in range(c)]
    return [[int(s) for s in rng.permutation(n)] for _ in range(c)]


def _unaligned_order(cfg: GenConfig, rng) -> list[tuple[int, int]]:
    """Uniform order over all pairs with each college's empty pair last.

    Equivalent to picking, independently and uniformly, an interleaving of
    the colleges' pair slots and a within-college order of the non-empty
    pairs: together those choices biject onto the valid full orders.
    """
    c, r = cfg.n_colleges, cfg.n_resources
    slots = np.repeat(np.arange(c), r + 1)
    rng.shuffle(slots)
    queues = []
    for ci in range(c):
        res = [int(x) for x in rng.permutation(np.arange(1, r + 1))]
        res.append(0)
        queues.append(res[::-1])  # pop from the end
    return [(int(ci), queues[ci].pop()) for ci in slots]


def _grid_order(
    cfg: GenConfig, rng, weights: Optional[np.ndarray]
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
    rng.random() draw. It draws the same stream and picks the same pair as
    rng.choice whenever the weight sum is exact, as it is for integer
    weights.
    """
    c, r = cfg.n_colleges, cfg.n_resources
    if weights is not None:
        weights = [float(w) for w in weights]
    top = [r + 1] * c  # college ci has emitted its pairs top[ci]..r
    frontier = [c - 1]
    out: list[tuple[int, int]] = []
    while frontier:
        if weights is None or len(frontier) == 1:
            k = int(rng.integers(len(frontier)))
        else:
            w = [weights[ci] for ci in frontier]
            total = sum(w)
            cdf = list(itertools.accumulate(wi / total for wi in w))
            k = bisect.bisect_right([p / cdf[-1] for p in cdf], rng.random())
        ci = frontier.pop(k)
        ri = top[ci] - 1
        top[ci] = ri
        out.append((ci, ri))
        if ci > 0 and top[ci - 1] == ri + 1:
            bisect.insort(frontier, ci - 1)
        if ri > 0 and (ci + 1 == c or top[ci + 1] < ri):
            bisect.insort(frontier, ci)
    return out


def _preferences(cfg: GenConfig, rng) -> list[list[tuple[int, int]]]:
    aligned_students = cfg.alignment in (
        "student_semi",
        "student_full",
        "student_and_college_full",
    )
    if cfg.alignment == "student_semi" and cfg.semi_sampler == "quality":
        weights = np.arange(1, cfg.n_colleges + 1, dtype=float)
    else:
        weights = None

    prefs = []
    for _ in range(cfg.n_students):
        if aligned_students:
            order = _grid_order(cfg, rng, weights)
        else:
            order = _unaligned_order(cfg, rng)
        if cfg.truncation == "uniform":
            keep = int(rng.integers(len(order) + 1))
            order = order[:keep]
        prefs.append(order)
    return prefs


def generate_market(cfg: GenConfig, seed: Optional[int] = None) -> Market:
    """Sample one market. An explicit seed overrides the config's seed.

    The same config and seed always produce the same market, byte for byte
    once serialized.
    """
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    college_quotas = _college_quotas(cfg, rng)
    resource_quotas = [
        _budget(cfg.n_students, cfg.resource_balance)
        for _ in range(cfg.n_resources)
    ]
    if cfg.n_resources and min(resource_quotas, default=1) < 1:
        raise ValueError("resource budget leaves a resource without units")
    regions = _regions(cfg, rng)
    priorities = _priorities(cfg, rng)
    preferences = _preferences(cfg, rng)
    return Market(
        n_students=cfg.n_students,
        college_quotas=college_quotas,
        resource_quotas=resource_quotas,
        regions=regions,
        priorities=priorities,
        preferences=preferences,
    )


def scaled(cfg: GenConfig, **overrides) -> GenConfig:
    """Convenience: a copy of cfg with fields replaced."""
    return replace(cfg, **overrides)
