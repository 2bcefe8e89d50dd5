"""Blocking analysis: envy blocks, waste blocks, domination, stability audit.

Terminology used throughout (all relative to a feasible, individually
rational matching mu):

* A contract x = (s, c, r) outside mu ENVY-BLOCKS through a victim
  y = (s', c, r') in mu when s strictly prefers (c, r) to her own assignment,
  c ranks s above s', and swapping (drop mu_s and y, add x) stays feasible.
  The envy is DIRECT when r is the victim's resource or the empty resource,
  INDIRECT otherwise.
* x WASTE-BLOCKS when s strictly prefers (c, r) to her assignment and
  re-seating her (drop mu_s, add x) stays feasible on its own. A waste block
  is SEAT-kind when s is not at c under mu and RESOURCE-kind when she is.
* A waste block x is DOMINATED when some contract x' at the same college is
  neither waste-blocking nor direct-envy-blocking under mu, yet becomes
  direct-envy-blocking once x is granted. Granting such an x would create a
  new direct complaint, so a cautious clearinghouse can refuse it.

Stability notions audited:
  stable            no envy blocks and no waste blocks
  envy_free         no envy blocks
  direct_envy_free  no direct envy blocks
  non_wasteful      no waste blocks
  seat_efficient    no seat-kind waste blocks
  resource_efficient no resource-kind waste blocks
  weakly_stable     direct_envy_free, and every waste block demands a
                    non-empty resource whose units are all distributed
  direct_envy_stable direct_envy_free, and every waste block is dominated
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .market import (
    EMPTY_RESOURCE,
    Contract,
    Market,
    Matching,
    Pair,
    is_feasible,
    is_individually_rational,
)

SEAT = "seat"
RESOURCE = "resource"
DIRECT_ENVY = "direct_envy"
INDIRECT_ENVY = "indirect_envy"

BLOCK_CATEGORIES = (RESOURCE, SEAT, DIRECT_ENVY, INDIRECT_ENVY)


class _State:
    """Mutable snapshot of a matching used by the per-contract checks."""

    __slots__ = ("assign", "ccount", "rcount", "roster")

    def __init__(self, m: Market, mu: Matching):
        self.assign: list[Optional[Contract]] = [
            mu.student_contract(s) for s in range(m.n_students)
        ]
        self.ccount = [len(mu.college_contracts(c)) for c in range(m.n_colleges)]
        self.rcount = [
            len(mu.resource_contracts(r)) for r in range(m.n_resources + 1)
        ]
        self.roster = [list(mu.college_contracts(c)) for c in range(m.n_colleges)]


def _waste_class(m: Market, st: _State, x: Contract) -> Optional[str]:
    """SEAT/RESOURCE if dropping x.student's contract and adding x stays
    feasible, else None. Improvement is NOT checked here."""
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


def _envy_victims(m: Market, st: _State, x: Contract) -> list[Contract]:
    """Victims through which x envy-blocks. Improvement is NOT checked here.

    The college count never binds for a same-college swap (one out, one in),
    so feasibility reduces to the region test and the demanded resource's
    count. Other colleges and resources only lose contracts in the swap.
    """
    s, c, r = x
    rank_row = m._rank[c]
    rs = rank_row[s]
    if rs is None:
        return []
    cur = st.assign[s]
    out: list[Contract] = []
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


def _has_direct_victim(x: Contract, victims: list[Contract]) -> bool:
    r = x.resource
    if r == EMPTY_RESOURCE:
        return bool(victims)
    return any(y.resource == r for y in victims)


def _improving_positions(m: Market, st: _State, s: int) -> range:
    """Positions of the pairs s strictly prefers to her assignment under mu."""
    cur = st.assign[s]
    limit = m.pref_position(
        s, (cur.college, cur.resource) if cur is not None else None
    )
    return range(min(limit, len(m.preferences[s])))


def _clean_candidates(
    m: Market, st: _State, pairs: set[Pair], blocks_mu: Callable[[Contract], bool]
) -> dict[Pair, list[tuple[int, int]]]:
    """The clean candidates for each (college, resource) pair in `pairs`, as
    (student, rank) rows in student order.

    A candidate is a contract its student prefers to her assignment under mu
    at a college that ranks her. It is clean when blocks_mu says it neither
    waste-blocks nor direct-envy-blocks mu.
    """
    buckets: dict[Pair, list[tuple[int, int]]] = {pair: [] for pair in pairs}
    for s in range(m.n_students):
        prefs = m.preferences[s]
        for pos in _improving_positions(m, st, s):
            bucket = buckets.get(prefs[pos])
            if bucket is not None:
                c, r = prefs[pos]
                rs = m._rank[c][s]
                if rs is not None and not blocks_mu(Contract(s, c, r)):
                    bucket.append((s, rs))
    return buckets


def _dominating_witness(
    m: Market, x: Contract, candidates: list[tuple[int, int]]
) -> Optional[Contract]:
    """First contract dominating waste block x = (s, c, r), or None.

    candidates are the _clean_candidates for (c, r). A dominating x' =
    (s', c, r') is clean under mu and direct-envy-blocks mu' (mu with x
    granted). mu' is feasible, so x' direct-envy-blocks it exactly when c
    ranks below s' someone at c who holds r' (anyone at c when r' is
    empty). Clean x' has no such victim under mu, and granting x adds only s
    holding r at c, so r' = r and c ranks s' above s. Then r is not empty:
    a clean (s', c, empty) finds c full, so the waste block x keeps s at c,
    where c ranks her above s' or she would be a victim under mu already.
    """
    s, c, r = x
    rs = m._rank[c][s]
    if rs is None:
        return None
    for s2, rs2 in candidates:
        if rs2 < rs:
            return Contract(s2, c, r)
    return None


def _require_auditable(m: Market, mu: Matching) -> None:
    if not is_feasible(m, mu):
        raise ValueError("matching is not feasible")
    if not is_individually_rational(m, mu):
        raise ValueError("matching is not individually rational")


def _require_candidate(m: Market, mu: Matching, x: Contract) -> None:
    if not (0 <= x.student < m.n_students and 0 <= x.college < m.n_colleges):
        raise ValueError(f"contract {x} references unknown ids")
    if not (0 <= x.resource <= m.n_resources):
        raise ValueError(f"contract {x} references unknown resource")
    if not m.acceptable(x.student, x.college, x.resource):
        raise ValueError(f"contract {x} is not acceptable to its student")
    if x in mu:
        raise ValueError(f"contract {x} is already in the matching")


# -- public per-contract checks ---------------------------------------------


def envy_victims(m: Market, mu: Matching, x: Contract) -> tuple[Contract, ...]:
    """All contracts through which x envy-blocks mu (empty if none).

    Raises ValueError when mu is infeasible or irrational, or when x is in mu
    or unacceptable to its student.
    """
    _require_auditable(m, mu)
    _require_candidate(m, mu, x)
    st = _State(m, mu)
    cur = st.assign[x.student]
    if not _improves(m, x, cur):
        return ()
    return tuple(_envy_victims(m, st, x))


def is_envy_blocking(m: Market, mu: Matching, x: Contract) -> bool:
    return bool(envy_victims(m, mu, x))


def is_direct_envy_blocking(m: Market, mu: Matching, x: Contract) -> bool:
    return _has_direct_victim(x, list(envy_victims(m, mu, x)))


def waste_block_class(m: Market, mu: Matching, x: Contract) -> Optional[str]:
    """"seat"/"resource" if x waste-blocks mu, else None."""
    _require_auditable(m, mu)
    _require_candidate(m, mu, x)
    st = _State(m, mu)
    if not _improves(m, x, st.assign[x.student]):
        return None
    return _waste_class(m, st, x)


def is_waste_blocking(m: Market, mu: Matching, x: Contract) -> bool:
    return waste_block_class(m, mu, x) is not None


def is_dominated(
    m: Market, mu: Matching, x: Contract
) -> tuple[bool, Optional[Contract]]:
    """Whether waste block x is dominated, and by which witness.

    Raises ValueError when x does not waste-block mu (on top of the usual
    matching preconditions).
    """
    _require_auditable(m, mu)
    _require_candidate(m, mu, x)
    st = _State(m, mu)
    if not _improves(m, x, st.assign[x.student]) or _waste_class(m, st, x) is None:
        raise ValueError(f"contract {x} does not waste-block this matching")

    def blocks_mu(xp: Contract) -> bool:
        if _waste_class(m, st, xp) is not None:
            return True
        return _has_direct_victim(xp, _envy_victims(m, st, xp))

    pair = (x.college, x.resource)
    w = _dominating_witness(m, x, _clean_candidates(m, st, {pair}, blocks_mu)[pair])
    return (w is not None, w)


def _improves(m: Market, x: Contract, cur: Optional[Contract]) -> bool:
    pair = (x.college, x.resource)
    cur_pair = (cur.college, cur.resource) if cur is not None else None
    return m.pref_position(x.student, pair) < m.pref_position(x.student, cur_pair)


# -- full audit ---------------------------------------------------------------


@dataclass(frozen=True)
class BlockingReport:
    """Outcome of auditing one matching.

    counts holds one entry per block category; a single contract can sit in
    one waste category and one envy category at the same time, and then it is
    counted in both. total is the sum of the four counts.
    """

    counts: dict[str, int]
    total: int
    stable: bool
    envy_free: bool
    direct_envy_free: bool
    non_wasteful: bool
    seat_efficient: bool
    resource_efficient: bool
    weakly_stable: bool
    direct_envy_stable: bool
    waste_witnesses: tuple[tuple[Contract, str], ...] = field(repr=False, default=())
    envy_witnesses: tuple[tuple[Contract, tuple[Contract, ...], bool], ...] = field(
        repr=False, default=()
    )

    @property
    def flags(self) -> dict[str, bool]:
        return {
            "stable": self.stable,
            "envy_free": self.envy_free,
            "direct_envy_free": self.direct_envy_free,
            "non_wasteful": self.non_wasteful,
            "seat_efficient": self.seat_efficient,
            "resource_efficient": self.resource_efficient,
            "weakly_stable": self.weakly_stable,
            "direct_envy_stable": self.direct_envy_stable,
        }

    def to_dict(self, verbose_witnesses: bool = False) -> dict:
        out: dict = {
            "counts": dict(self.counts),
            "total": self.total,
            "flags": self.flags,
        }
        if verbose_witnesses:
            out["waste_witnesses"] = [
                {"contract": list(x), "kind": kind}
                for (x, kind) in self.waste_witnesses
            ]
            out["envy_witnesses"] = [
                {
                    "contract": list(x),
                    "victims": [list(y) for y in victims],
                    "direct": direct,
                }
                for (x, victims, direct) in self.envy_witnesses
            ]
        return out


def audit(m: Market, mu: Matching) -> BlockingReport:
    """Classify every blocking contract of mu and derive the stability flags.

    Only contracts a student strictly prefers to her assignment can block, so
    the scan walks each student's preference list down to her current match.
    Witness lists record each blocking contract once (waste witnesses with
    their kind, envy witnesses with their victims and directness).

    Raises:
        ValueError: mu is infeasible or not individually rational.
    """
    _require_auditable(m, mu)
    st = _State(m, mu)

    counts = {RESOURCE: 0, SEAT: 0, DIRECT_ENVY: 0, INDIRECT_ENVY: 0}
    waste_witnesses: list[tuple[Contract, str]] = []
    envy_witnesses: list[tuple[Contract, tuple[Contract, ...], bool]] = []
    waste_set: set[Contract] = set()
    any_direct = False

    for s in range(m.n_students):
        prefs = m.preferences[s]
        for pos in _improving_positions(m, st, s):
            c, r = prefs[pos]
            x = Contract(s, c, r)
            kind = _waste_class(m, st, x)
            if kind is not None:
                counts[kind] += 1
                waste_witnesses.append((x, kind))
                waste_set.add(x)
            victims = _envy_victims(m, st, x)
            if victims:
                direct = _has_direct_victim(x, victims)
                if direct:
                    counts[DIRECT_ENVY] += 1
                    any_direct = True
                else:
                    counts[INDIRECT_ENVY] += 1
                envy_witnesses.append((x, tuple(victims), direct))

    non_wasteful = not waste_witnesses
    envy_free = not envy_witnesses
    seat_efficient = counts[SEAT] == 0
    resource_efficient = counts[RESOURCE] == 0

    weakly_stable = not any_direct
    if weakly_stable:
        for x, _kind in waste_witnesses:
            r = x.resource
            if r == EMPTY_RESOURCE or st.rcount[r] != m.resource_quotas[r - 1]:
                weakly_stable = False
                break

    direct_envy_stable = not any_direct
    if direct_envy_stable and waste_witnesses:
        # no contract direct-envy-blocks mu here, so clean means not wasteful
        pairs = {(x.college, x.resource) for x, _kind in waste_witnesses}
        candidates = _clean_candidates(m, st, pairs, waste_set.__contains__)
        direct_envy_stable = all(
            _dominating_witness(m, x, candidates[(x.college, x.resource)])
            is not None
            for x, _kind in waste_witnesses
        )

    return BlockingReport(
        counts=counts,
        total=sum(counts.values()),
        stable=non_wasteful and envy_free,
        envy_free=envy_free,
        direct_envy_free=not any_direct,
        non_wasteful=non_wasteful,
        seat_efficient=seat_efficient,
        resource_efficient=resource_efficient,
        weakly_stable=weakly_stable,
        direct_envy_stable=direct_envy_stable,
        waste_witnesses=tuple(waste_witnesses),
        envy_witnesses=tuple(envy_witnesses),
    )
