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

One scan of mu (_scan) walks each student's list down to her assignment and
classifies every candidate once. audit reads its counts, flags and domination
step from it, and each per-contract check reads its contract's entry from the
same scan, so the two agree by construction.

audit is the one-matching case of _audit_all, which audits matchings of one
market in order, their scans sharing one candidate table (_Table): each
student's contracts, built once and only as deep as some scan has needed,
and, across matchings, one copy of each witness. oracle.census audits a
whole market this way, so it builds no contract per matching.

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

from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

from .market import (
    EMPTY_RESOURCE,
    Contract,
    Market,
    Matching,
    Pair,
    _require_known_pairs,
    fits,
    is_feasible,
)

SEAT = "seat"
RESOURCE = "resource"
DIRECT_ENVY = "direct_envy"
INDIRECT_ENVY = "indirect_envy"

BLOCK_CATEGORIES = (RESOURCE, SEAT, DIRECT_ENVY, INDIRECT_ENVY)

# builds a Contract from its (s, c, r) tuple in C, as Contract(s, c, r) does
# through the NamedTuple's Python-level __new__
_tuple_new = tuple.__new__


class _Table:
    """What the scans of one market's matchings share.

    rows[s] holds the Contract of each entry of student s's list, in list
    order, down to the deepest stop some scan has needed so far. When the
    scans are of several matchings, witnesses maps each waste and envy
    witness recorded so far to its first copy, so equal witnesses of
    different matchings are one object. One scan records each witness
    once, so for one matching witnesses is None and nothing is looked up.
    """

    __slots__ = ("rows", "witnesses")

    def __init__(self, m: Market, n_matchings: int = 1):
        self.rows: list[list[Contract]] = [[] for _ in range(m.n_students)]
        self.witnesses: Optional[dict[tuple, tuple]] = {} if n_matchings > 1 else None


class _State:
    """Mutable snapshot of a matching, as the scan reads it."""

    __slots__ = ("assign", "ccount", "rcount", "roster")

    def __init__(self, m: Market, mu: Matching):
        self.assign: list[Optional[Contract]] = [None] * m.n_students
        self.ccount = [0] * m.n_colleges
        self.rcount = [0] * (m.n_resources + 1)
        self.roster: list[list[Contract]] = [[] for _ in range(m.n_colleges)]
        # mu iterates in sorted order, so each roster is in student order
        for x in mu:
            s, c, r = x
            self.assign[s] = x
            self.ccount[c] += 1
            self.rcount[r] += 1
            self.roster[c].append(x)


def _scan(
    m: Market, st: _State, table: _Table
) -> tuple[
    list[tuple[Contract, str]],
    list[tuple[Contract, tuple[Contract, ...], bool]],
    list[Contract],
]:
    """Classify every candidate of the matching st holds.

    A candidate is a contract its student strictly prefers to her assignment,
    so the scan walks each student's list down to her current match. In
    student order, then list order, it records each candidate x = (s, c, r)
    that waste-blocks, with its kind; each that envy-blocks, with its victims
    and whether the envy is direct; and each that is clean: neither
    waste-blocking nor direct-envy-blocking, at a college that ranks s.

    The candidates are read from table.rows: a scan builds a student's
    missing entries only when she needs more of her list than the row
    holds, so scans that share the table build each contract once. Each
    witness recorded is table.witnesses' copy of it, if the table keeps one.

    The envy swap drops mu_s and the victim y and adds x. Other colleges and
    resources only lose contracts, so it fits exactly when x fits at c once
    both leave, and that depends on y only through whether y holds r. A
    victim who holds r frees a unit of it, so she is one whenever any
    ranked-below y is.
    """
    waste: list[tuple[Contract, str]] = []
    envy: list[tuple[Contract, tuple[Contract, ...], bool]] = []
    clean: list[Contract] = []
    ccount, rcount, roster = st.ccount, st.rcount, st.roster
    prefs, pref_pos = m.preferences, m._pref_pos
    rows, witnesses = table.rows, table.witnesses
    for s, cur in enumerate(st.assign):
        if cur is None:
            cur_c = cur_r = -1
            stop = len(prefs[s])
        else:
            _s, cur_c, cur_r = cur
            stop = pref_pos[s][cur_c, cur_r]  # listed: mu is individually rational
        if not stop:
            continue
        row = rows[s]
        if len(row) < stop:
            row += [_tuple_new(Contract, (s, c, r)) for c, r in prefs[s][len(row) : stop]]
        for x in row[:stop]:
            _s, c, r = x
            at_c = c == cur_c
            had_r = r == cur_r
            wasteful = fits(m, ccount, rcount, c, r, at_c, had_r)
            if wasteful:
                w = (x, RESOURCE if at_c else SEAT)
                waste.append(w if witnesses is None else witnesses.setdefault(w, w))
            rank_row = m._rank[c]
            rs = rank_row[s]
            if rs is None:
                continue
            victims = [
                y
                for y in roster[c]
                if (ry := rank_row[y.student]) is not None and rs < ry
            ]
            if victims and not fits(m, ccount, rcount, c, r, 1 + at_c, had_r):
                if fits(m, ccount, rcount, c, r, 1 + at_c, had_r + 1):
                    victims = [y for y in victims if y.resource == r]
                else:
                    victims = []
            direct = False
            if victims:
                direct = r == EMPTY_RESOURCE or any(y.resource == r for y in victims)
                e = (x, tuple(victims), direct)
                envy.append(e if witnesses is None else witnesses.setdefault(e, e))
            if not (wasteful or direct):
                clean.append(x)
    return waste, envy, clean


def _dominating_witness(
    m: Market, x: Contract, candidates: list[Contract]
) -> Optional[Contract]:
    """First contract dominating waste block x = (s, c, r), or None.

    candidates are the scan's clean contracts at (c, r), in student order. A
    dominating x' = (s', c, r') is clean under mu and direct-envy-blocks mu'
    (mu with x granted). mu' is feasible, so x' direct-envy-blocks it exactly
    when c ranks below s' someone at c who holds r' (anyone at c when r' is
    empty). Clean x' has no such victim under mu, and granting x adds only s
    holding r at c, so r' = r and c ranks s' above s. Then r is not empty:
    a clean (s', c, empty) finds c full, so the waste block x keeps s at c,
    where c ranks her above s' or she would be a victim under mu already.
    """
    s, c, _r = x
    rank_row = m._rank[c]
    rs = rank_row[s]
    if rs is None:
        return None
    for xp in candidates:
        if rank_row[xp.student] < rs:
            return xp
    return None


def _require_auditable(m: Market, mu: Matching) -> None:
    _require_known_pairs(m)
    if not is_feasible(m, mu):  # raises on mu's unknown ids first
        raise ValueError("matching is not feasible")
    # is_feasible has checked every id, so each list is read directly
    pref_pos = m._pref_pos
    if not all((c, r) in pref_pos[s] for s, c, r in mu):
        raise ValueError("matching is not individually rational")


def _entry(
    m: Market, mu: Matching, x: Contract
) -> tuple[Optional[str], tuple[Contract, ...], bool, list[Contract]]:
    """x's waste kind, envy victims and directness from the scan of mu, and
    the scan's clean contracts. A contract that is no candidate gets
    (None, (), False).

    Raises ValueError when mu is infeasible or irrational, or when x is in mu
    or unacceptable to its student.
    """
    _require_auditable(m, mu)
    if not (0 <= x.student < m.n_students and 0 <= x.college < m.n_colleges):
        raise ValueError(f"contract {x} references unknown ids")
    if not (0 <= x.resource <= m.n_resources):
        raise ValueError(f"contract {x} references unknown resource")
    if not m.acceptable(x.student, x.college, x.resource):
        raise ValueError(f"contract {x} is not acceptable to its student")
    if x in mu:
        raise ValueError(f"contract {x} is already in the matching")
    waste, envy, clean = _scan(m, _State(m, mu), _Table(m))
    kind = next((k for y, k in waste if y == x), None)
    victims, direct = next(((v, d) for y, v, d in envy if y == x), ((), False))
    return kind, victims, direct, clean


# -- public per-contract checks ---------------------------------------------


def envy_victims(m: Market, mu: Matching, x: Contract) -> tuple[Contract, ...]:
    """All contracts through which x envy-blocks mu (empty if none).

    Raises ValueError when mu is infeasible or irrational, or when x is in mu
    or unacceptable to its student.
    """
    _kind, victims, _direct, _clean = _entry(m, mu, x)
    return victims


def is_envy_blocking(m: Market, mu: Matching, x: Contract) -> bool:
    return bool(envy_victims(m, mu, x))


def is_direct_envy_blocking(m: Market, mu: Matching, x: Contract) -> bool:
    _kind, _victims, direct, _clean = _entry(m, mu, x)
    return direct


def waste_block_class(m: Market, mu: Matching, x: Contract) -> Optional[str]:
    """"seat"/"resource" if x waste-blocks mu, else None."""
    kind, _victims, _direct, _clean = _entry(m, mu, x)
    return kind


def is_waste_blocking(m: Market, mu: Matching, x: Contract) -> bool:
    return waste_block_class(m, mu, x) is not None


def is_dominated(
    m: Market, mu: Matching, x: Contract
) -> tuple[bool, Optional[Contract]]:
    """Whether waste block x is dominated, and by which witness.

    Raises ValueError when x does not waste-block mu (on top of the usual
    matching preconditions).
    """
    kind, _victims, _direct, clean = _entry(m, mu, x)
    if kind is None:
        raise ValueError(f"contract {x} does not waste-block this matching")
    pair = (x.college, x.resource)
    w = _dominating_witness(
        m, x, [xp for xp in clean if (xp.college, xp.resource) == pair]
    )
    return (w is not None, w)


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
        # the bool fields in field order (annotations are strings here)
        return {f.name: getattr(self, f.name) for f in fields(self) if f.type == "bool"}

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

    One scan of mu classifies every candidate (see _scan); the counts, the
    flags and the domination step all read it. Witness lists record each
    blocking contract once (waste witnesses with their kind, envy witnesses
    with their victims and directness).

    Raises:
        ValueError: some student of m lists an unknown college or resource,
            or mu is infeasible or not individually rational.
    """
    return _audit_all(m, (mu,))[0]


def _audit_all(m: Market, matchings: Sequence[Matching]) -> list[BlockingReport]:
    """audit of each matching of m, in order, all scans sharing one _Table.

    Each matching is checked as audit checks it, and the first that fails
    raises audit's ValueError.
    """
    table = _Table(m, len(matchings))
    reports = []
    for mu in matchings:
        _require_auditable(m, mu)
        st = _State(m, mu)
        reports.append(_report(m, st, *_scan(m, st, table)))
    return reports


def _report(
    m: Market,
    st: _State,
    waste: list[tuple[Contract, str]],
    envy: list[tuple[Contract, tuple[Contract, ...], bool]],
    clean: list[Contract],
) -> BlockingReport:
    """The report of the matching st holds, from its scan."""
    n_resource = sum(kind == RESOURCE for _x, kind in waste)
    n_direct = sum(direct for _x, _victims, direct in envy)
    counts = {
        RESOURCE: n_resource,
        SEAT: len(waste) - n_resource,
        DIRECT_ENVY: n_direct,
        INDIRECT_ENVY: len(envy) - n_direct,
    }
    weakly_stable = not n_direct and all(
        x.resource != EMPTY_RESOURCE
        and st.rcount[x.resource] == m.resource_quotas[x.resource - 1]
        for x, _kind in waste
    )

    direct_envy_stable = not n_direct
    if direct_envy_stable and waste:
        buckets: dict[Pair, list[Contract]] = {
            (x.college, x.resource): [] for x, _kind in waste
        }
        for xp in clean:
            bucket = buckets.get((xp.college, xp.resource))
            if bucket is not None:
                bucket.append(xp)
        direct_envy_stable = all(
            _dominating_witness(m, x, buckets[(x.college, x.resource)]) is not None
            for x, _kind in waste
        )

    return BlockingReport(
        counts=counts,
        total=len(waste) + len(envy),
        stable=not waste and not envy,
        envy_free=not envy,
        direct_envy_free=not n_direct,
        non_wasteful=not waste,
        seat_efficient=counts[SEAT] == 0,
        resource_efficient=n_resource == 0,
        weakly_stable=weakly_stable,
        direct_envy_stable=direct_envy_stable,
        waste_witnesses=tuple(waste),
        envy_witnesses=tuple(envy),
    )
