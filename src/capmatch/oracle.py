"""Brute-force ground truth for small markets.

Everything here trades speed for certainty: exhaustive enumeration of
feasible individually rational matchings, full stability censuses, Pareto
checks against the whole matching set, and an exhaustive manipulation probe.
All entry points guard against combinatorial blowup with an explicit bound
and raise OracleBoundError instead of hanging.

census audits all of a market's matchings at once (_audit_arrays). The
market's list entries are fixed, and a matching only decides which of them
are candidates and the counts they are tested against, so each of audit's
tests is one array operation over the matchings-by-entries grid, and the
victims one over matchings x entries x students, in blocks of rows of
about _BLOCK_CELLS cells. A lone audit keeps blocking's one-matching scan,
whose memory does not grow with the list lengths times n: the census
covers small markets, the scan the mechanisms' outputs at any size.
naive_audit decides every block from the definitions, by building each
changed matching and asking is_feasible; both audit paths are checked
against it.

The Pareto step is a skyline (the maxima of a set of vectors; Kung, Luccio
& Preparata, JACM 1975). Each matching becomes one row of students'
preference positions, built once per census by the array audit, and a
row is dominated when another row is componentwise <= and has a strictly
smaller sum. That test runs column by column over blocks of rows, so its
memory stays bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import chain, permutations
from math import factorial, perm, prod
from typing import Callable, Optional, Sequence, Union

import numpy as np

# audit is unused here but stays importable: perfbench/spans.py patches oracle.audit
from .blocking import (  # noqa: F401
    RESOURCE,
    SEAT,
    BlockingReport,
    _make_report,
    _require_auditable,
    _tuple_new,
    audit,
)
from .market import (
    EMPTY_RESOURCE,
    Contract,
    Market,
    Matching,
    _require_known_pairs,
    fits,
    is_feasible,
    prefers,
)

DEFAULT_BOUND = 10_000_000
# matchings the walk may yield, checked as it yields them: the leaf bound
# alone lets it hold millions of Matching objects
_MAX_MATCHINGS = 1_000_000
# cells of one block of the domination test and of the array audit's victims:
# about 4M booleans per array
_BLOCK_CELLS = 1 << 22


class OracleBoundError(RuntimeError):
    """The requested exhaustive computation exceeds the stated bound."""


def enumerate_matchings(m: Market, bound: int = DEFAULT_BOUND) -> list[Matching]:
    """All feasible individually rational matchings of m.

    Walks a per-student choice tree (each student takes one of her acceptable
    pairs or stays unmatched) and prunes branches as soon as a quota or
    region is violated; adding contracts never repairs a violation, so the
    pruning is exact. The result is duplicate-free by construction.

    Raises:
        ValueError: some student lists an unknown college or resource.
        OracleBoundError: the unpruned choice tree exceeds `bound` leaves
            (checked before the walk), or the walk finds more than
            _MAX_MATCHINGS matchings (checked as it finds them, so the
            error comes before the list outgrows memory).
    """
    _require_known_pairs(m)
    sizes = [len(m.preferences[s]) + 1 for s in range(m.n_students)]
    if prod(sizes) > bound:
        raise OracleBoundError(
            f"choice tree has about {prod(sizes):.3g} leaves, bound is {bound}"
        )

    ccount = [0] * m.n_colleges
    rcount = [0] * (m.n_resources + 1)
    # each student's contracts, built once: every matching shares them
    rows = [
        [Contract(s, c, r) for c, r in prefs] for s, prefs in enumerate(m.preferences)
    ]
    chosen: list[Contract] = []
    out: list[Matching] = []
    limit = _MAX_MATCHINGS

    def walk(s: int) -> None:
        if s == m.n_students:
            out.append(Matching(chosen))
            if len(out) > limit:
                raise OracleBoundError(f"the walk found more than {limit} matchings")
            return
        walk(s + 1)  # unmatched branch first
        for x in rows[s]:
            _s, c, r = x
            if fits(m, ccount, rcount, c, r):
                ccount[c] += 1
                rcount[r] += 1
                chosen.append(x)
                walk(s + 1)
                chosen.pop()
                ccount[c] -= 1
                rcount[r] -= 1

    walk(0)
    return out


def _position_matrix(m: Market, matchings: Sequence[Matching]) -> np.ndarray:
    """M x n array: row i holds every student's `pref_position` in matchings[i]."""
    lengths = [len(prefs) for prefs in m.preferences]
    rows = []
    for mu in matchings:
        row = lengths.copy()
        for s, c, r in mu:
            row[s] = m._pref_pos[s].get((c, r), lengths[s] + 1)
        rows.append(row)
    return np.array(rows, dtype=np.int64)


def _dominated_rows(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """For each row q of Q: does some row p of P have p <= q in every column
    and sum(p) < sum(q)?

    That is Pareto domination: a vector that is <= everywhere and differs
    somewhere has a strictly smaller sum, and the converse holds too.
    """
    out = np.zeros(len(Q), dtype=bool)
    if len(P) == 0:
        return out
    p_sum = P.sum(axis=1)
    q_sum = Q.sum(axis=1)
    step = max(1, _BLOCK_CELLS // len(P))
    for lo in range(0, len(Q), step):
        q = Q[lo : lo + step]
        le = p_sum[None, :] < q_sum[lo : lo + step, None]
        for k in range(P.shape[1]):
            le &= P[None, :, k] <= q[:, None, k]
        out[lo : lo + step] = le.any(axis=1)
    return out


def _audit_arrays(
    m: Market, matchings: Sequence[Matching]
) -> tuple[np.ndarray, list[BlockingReport]]:
    """The position matrix of the matchings (see _position_matrix), and the
    audit of each, in order, computed for all of them at once.

    For one market the candidates are fixed: entry e of the candidate table
    is student s_e's pair (c_e, r_e) at list position j_e. A matching only
    decides which entries are candidates (those above her assignment) and
    the counts they are tested against, so each of audit's tests is one
    array operation over the M x L (matchings x entries) grid, and the
    victims one over the M x L x n grid, taken in blocks of rows of about
    _BLOCK_CELLS cells. Witnesses are listed in row-major order, which is
    the scan's student-then-list order, so every report equals
    audit(m, mu).

    Raises audit's ValueError for the first matching audit would refuse.
    """
    n, n_c, n_r = m.n_students, m.n_colleges, m.n_resources + 1
    n_m = len(matchings)
    if not n_m:
        return np.zeros((0, n), np.int64), []
    _require_known_pairs(m)

    # the candidate table, in student order, then list order
    prefs = m.preferences
    lengths = np.array([len(p) for p in prefs], np.int64)
    s_e = np.repeat(np.arange(n), lengths)
    j_e = np.arange(len(s_e)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    c_e, r_e = _flat_ints(chain.from_iterable(prefs), 2 * len(s_e)).reshape(-1, 2).T
    xs = [_tuple_new(Contract, (s, c, r)) for s, ps in enumerate(prefs) for c, r in ps]
    # the entry of each (s, c, r) that some student lists, its first listing
    entry_of = np.full(n * n_c * n_r, -1)
    keys, first = np.unique((s_e * n_c + c_e) * n_r + r_e, return_index=True)
    entry_of[keys] = first

    # rank[c, s] = c's 1-based rank of s, or -1 when c does not rank her
    rank = np.array(
        [[-1 if v is None else v for v in row] for row in m._rank], np.int64
    ).reshape(n_c, n)
    rank_e = rank[c_e, s_e]
    ranked_e = rank_e > 0
    # below[e, t]: c_e ranks s_e above student t, who is ranked too
    below = ranked_e[:, None] & (rank[c_e] > rank_e[:, None])
    # dominates[f, e]: a clean f at the same (c, r) dominates waste block e
    dominates = (
        (c_e[:, None] == c_e)
        & (r_e[:, None] == r_e)
        & ranked_e[:, None]
        & ranked_e
        & (rank_e[:, None] < rank_e)
    )
    cq = np.array(m.college_quotas, np.int64)
    # the empty resource never fills: n + 1 units is more than n students hold
    rq = np.array((n + 1, *m.resource_quotas), np.int64)
    region = np.zeros((n_c, n_r), bool)
    region[:, EMPTY_RESOURCE] = True
    for r, reg in enumerate(m.regions, 1):
        region[[c for c in reg if 0 <= c < n_c], r] = True
    cq_e, rq_e, region_e = cq[c_e], rq[r_e], region[c_e, r_e]
    empty_e = r_e == EMPTY_RESOURCE

    # every contract of every matching, and the checks audit makes
    sizes = np.fromiter(map(len, matchings), np.int64, n_m)
    row = np.repeat(np.arange(n_m), sizes)
    s, c, r = _flat_ints(chain.from_iterable(matchings), 3 * len(row)).reshape(-1, 3).T
    unknown = (s < 0) | (s >= n) | (c < 0) | (c >= n_c) | (r < 0) | (r >= n_r)
    if unknown.any():
        for mu in matchings[: row[unknown.argmax()] + 1]:
            _require_auditable(m, mu)  # raises for the first refused matching
    ccount = np.bincount(row * n_c + c, minlength=n_m * n_c).reshape(n_m, n_c)
    rcount = np.bincount(row * n_r + r, minlength=n_m * n_r).reshape(n_m, n_r)
    infeasible = (ccount > cq).any(1) | (rcount > rq).any(1)
    infeasible[row[~region[c, r]]] = True
    e = entry_of[(s * n_c + c) * n_r + r]
    irrational = np.zeros(n_m, bool)
    irrational[row[e < 0]] = True
    refused = infeasible | irrational
    if refused.any():
        i = refused.argmax()
        raise ValueError(
            "matching is not feasible"
            if infeasible[i]
            else "matching is not individually rational"
        )
    P = np.repeat(lengths[None, :], n_m, axis=0)
    P[row, s] = j_e[e]
    col = np.full((n_m, n), -1)
    col[row, s] = c
    res = np.full((n_m, n), -1)
    res[row, s] = r

    waste_of = [w for x in xs for w in ((x, SEAT), (x, RESOURCE))]
    by_entry = entry_of.tolist()
    per_row: list[list] = [[] for _ in range(6)]
    waste_flat: list = []
    envy_flat: list = []
    step = max(1, _BLOCK_CELLS // max(1, len(xs) * n))
    for lo in range(0, n_m, step):
        rows = slice(lo, lo + step)
        active = P[rows][:, s_e] > j_e
        at_c = col[rows][:, s_e] == c_e
        had_r = res[rows][:, s_e] == r_e
        # holders of c_e and of r_e once s_e leaves
        left_c = ccount[rows][:, c_e] - at_c
        left_r = rcount[rows][:, r_e] - had_r
        unit = region_e & (left_r < rq_e)
        waste = active & unit & (left_c < cq_e)
        # a swap frees the victim's seat too, and her unit if she holds r_e
        swap = left_c <= cq_e
        swap_any = swap & unit
        swap_r = swap & region_e & (left_r <= rq_e)
        holds_r = res[rows][:, None, :] == r_e[:, None]
        victims = (
            (col[rows][:, None, :] == c_e[:, None])
            & below
            & (swap_any[..., None] | (swap_r[..., None] & holds_r))
        )
        envy = active & victims.any(2)
        direct = envy & (empty_e | (victims & holds_r).any(2))
        clean = active & ranked_e & ~waste & ~direct
        no_direct = ~direct.any(1)
        full = ~empty_e & (rcount[rows][:, r_e] == rq_e)
        weakly = no_direct & ~(waste & ~full).any(1)
        des = no_direct & ~(waste & ~(clean @ dominates)).any(1)
        n_resource = (waste & at_c).sum(1)
        for out, a in zip(
            per_row, (waste.sum(1), n_resource, envy.sum(1), direct.sum(1), weakly, des)
        ):
            out += a.tolist()

        wi, we = np.nonzero(waste)
        waste_flat += map(waste_of.__getitem__, (2 * we + at_c[wi, we]).tolist())
        # one witness per distinct (entry, victims): a victim t is coded as
        # her resource + 1, a non-victim as 0
        ei, ee = np.nonzero(envy)
        if not len(ei):
            continue
        coded = np.column_stack((ee, np.where(victims[ei, ee], res[rows][ei] + 1, 0)))
        first, group = _distinct_rows(coded)
        witnesses = []
        for (x_e, *codes), d in zip(
            coded[first].tolist(), direct[ei[first], ee[first]].tolist()
        ):
            cx = int(c_e[x_e])
            victims_of = tuple(
                xs[by_entry[(t * n_c + cx) * n_r + code - 1]]
                for t, code in enumerate(codes)
                if code
            )
            witnesses.append((xs[x_e], victims_of, d))
        envy_flat += map(witnesses.__getitem__, group.tolist())

    reports = []
    w_at = e_at = 0
    for n_waste, n_resource, n_envy, n_direct, weakly_stable, des in zip(*per_row):
        reports.append(
            _make_report(
                tuple(waste_flat[w_at : w_at + n_waste]),
                tuple(envy_flat[e_at : e_at + n_envy]),
                n_resource,
                n_direct,
                weakly_stable,
                des,
            )
        )
        w_at += n_waste
        e_at += n_envy
    return P, reports


def _flat_ints(items, count: int) -> np.ndarray:
    """The count ints of the int tuples items, in order, as one array."""
    return np.fromiter(chain.from_iterable(items), np.int64, count)


def _distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of one row of each distinct row of a, and for each row of
    a the position of its distinct row in the first array."""
    order = np.lexsort(a.T)
    a = a[order]
    new = np.ones(len(a), bool)
    new[1:] = (a[1:] != a[:-1]).any(1)
    group = np.empty_like(order)
    group[order] = np.cumsum(new) - 1
    return order[new], group


def is_pareto_efficient(
    m: Market, mu: Matching, bound: int = DEFAULT_BOUND
) -> bool:
    """No feasible matching makes someone better off and nobody worse off.

    A dominating matching weakly improves every student over an individually
    rational one, so it is itself individually rational; searching the
    enumerated IR set therefore loses nothing.
    """
    P = _position_matrix(m, enumerate_matchings(m, bound))
    return not _dominated_rows(P, _position_matrix(m, [mu]))[0]


@dataclass(frozen=True)
class StabilityCensus:
    """Audit of every feasible IR matching of one market.

    The sets hold indices into `matchings`. The census only reports what the
    audits found; it deliberately enforces no inclusion between the sets.
    """

    matchings: tuple[Matching, ...]
    reports: tuple[BlockingReport, ...]
    stable: tuple[int, ...]
    envy_free: tuple[int, ...]
    non_wasteful: tuple[int, ...]
    weakly_stable: tuple[int, ...]
    direct_envy_stable: tuple[int, ...]
    pareto_efficient: tuple[int, ...]

    def set_of(self, name: str) -> list[Matching]:
        """The matchings in one of CENSUS_SETS; AttributeError for any other name."""
        if name not in CENSUS_SETS:
            raise AttributeError(f"a census has no set {name!r}")
        return [self.matchings[i] for i in getattr(self, name)]


# the census's index sets, as `capmatch oracle` prints them: the fields after reports
CENSUS_SETS = tuple(f.name for f in fields(StabilityCensus))[2:]


def census(m: Market, bound: int = DEFAULT_BOUND) -> StabilityCensus:
    """Enumerate, audit, and classify every feasible IR matching."""
    matchings = enumerate_matchings(m, bound)
    P, reports = _audit_arrays(m, matchings)
    pareto = tuple(int(i) for i in np.flatnonzero(~_dominated_rows(P, P)))
    # every set but the last, the Pareto skyline, is a report flag
    flagged = (
        tuple(i for i, rep in enumerate(reports) if getattr(rep, name))
        for name in CENSUS_SETS[:-1]
    )
    return StabilityCensus(tuple(matchings), tuple(reports), *flagged, pareto)


def naive_audit(m: Market, mu: Matching) -> BlockingReport:
    """audit of mu, decided straight from the definitions in blocking's
    docstring and README "Blocking taxonomy"; weak stability follows Kamada
    & Kojima, "Stability concepts in matching under distributional
    constraints" (JET 2017).

    Every question is asked of a changed matching and answered by
    is_feasible: a candidate x = (s, c, r) waste-blocks when mu - {mu_s} + {x}
    is feasible, and y is its envy victim when mu - {mu_s, y} + {x} is. A
    waste block x is dominated when some contract at c is neither waste-
    nor direct-envy-blocking under mu but direct-envy-blocks mu once x is
    granted. Slow on purpose: it shares no code with audit's scan or the
    census's arrays, so it is the reference both are checked against.

    Raises audit's ValueError when mu is not auditable.
    """
    _require_auditable(m, mu)
    waste, envy = [], []
    for s in range(m.n_students):
        for c, r in m.preferences[s]:
            x = Contract(s, c, r)
            kind, victims = _naive_blocks(m, mu, x)
            if kind is not None:
                waste.append((x, kind))
            if victims:
                envy.append((x, victims, _naive_direct(x, victims)))
    n_direct = sum(direct for _x, _victims, direct in envy)
    weakly_stable = not n_direct and all(
        x.resource != EMPTY_RESOURCE
        and sum(y.resource == x.resource for y in mu)
        == m.resource_quota(x.resource)
        for x, _kind in waste
    )
    direct_envy_stable = not n_direct and all(
        _naive_dominated(m, mu, x) for x, _kind in waste
    )
    return _make_report(
        tuple(waste),
        tuple(envy),
        sum(kind == RESOURCE for _x, kind in waste),
        n_direct,
        weakly_stable,
        direct_envy_stable,
    )


def _naive_blocks(
    m: Market, mu: Matching, x: Contract
) -> tuple[Optional[str], tuple[Contract, ...]]:
    """x's waste kind (None if it does not waste-block mu) and its envy
    victims, in student order, by building each changed matching."""
    s, c, r = x
    own = mu.student_contract(s)
    own_pair = None if own is None else (own.college, own.resource)
    if not prefers(m, s, (c, r), own_pair):
        return None, ()
    others = [y for y in mu if y.student != s]
    kind = None
    if is_feasible(m, Matching([*others, x])):
        kind = RESOURCE if own is not None and own.college == c else SEAT
    rank_row = m._rank[c]
    victims = tuple(
        y
        for y in others
        if y.college == c
        and rank_row[s] is not None
        and rank_row[y.student] is not None
        and rank_row[s] < rank_row[y.student]
        and is_feasible(m, Matching([*(z for z in others if z != y), x]))
    )
    return kind, victims


def _naive_direct(x: Contract, victims: tuple[Contract, ...]) -> bool:
    """Envy through these victims is direct when x asks for a plain seat or
    for some victim's own resource."""
    r = x.resource
    return r == EMPTY_RESOURCE or any(y.resource == r for y in victims)


def _naive_dominated(m: Market, mu: Matching, x: Contract) -> bool:
    """Whether granting waste block x turns some contract at x's college
    that is clean under mu into a direct-envy block."""
    granted = Matching([*(y for y in mu if y.student != x.student), x])

    def direct_envy(nu: Matching, xp: Contract) -> bool:
        victims = _naive_blocks(m, nu, xp)[1]
        return bool(victims) and _naive_direct(xp, victims)

    for s, prefs in enumerate(m.preferences):
        for c, r in prefs:
            xp = Contract(s, c, r)
            if (
                c == x.college
                and direct_envy(granted, xp)
                and not direct_envy(mu, xp)
                and _naive_blocks(m, mu, xp)[0] is None
            ):
                return True
    return False


def _misreports(pairs: Sequence[tuple[int, int]]):
    """All strict orders over subsets of the given pairs, shortest first."""
    for k in range(len(pairs) + 1):
        yield from permutations(pairs, k)


def strategyproofness_probe(
    m: Market,
    mechanism: Union[str, Callable[[Market], Matching]],
    student: int,
    bound: int = 200_000,
    seed: Optional[int] = 0,
) -> Optional[dict]:
    """Search for a profitable misreport by one student.

    mechanism is either a callable Market -> Matching (run deterministically
    once per report) or a mechanism name. Named mechanisms run with the given
    seed; "rsd" is special-cased to iterate every serial order, since its
    guarantee is per-order. Misreports are every strict order over every
    subset of the student's true acceptable pairs, and outcomes are compared
    under the TRUE preferences.

    Returns None when nothing profitable exists, else a dict with the
    misreport, the order (rsd only), and the before/after assignments.

    Raises:
        ValueError: student is not one of the market's ids.
        OracleBoundError: misreports x orders would exceed `bound` runs.
    """
    if not (0 <= student < m.n_students):
        raise ValueError(f"unknown student id {student}")
    true_pairs = m.preferences[student]
    n_reports = sum(perm(len(true_pairs), k) for k in range(len(true_pairs) + 1))

    from .mechanisms import MECHANISMS, run_rsd

    rsd = mechanism == "rsd"
    # count the serial orders before building any: n! outgrows memory fast
    n_orders = factorial(m.n_students) if rsd else 1
    if n_reports * n_orders > bound:
        raise OracleBoundError(
            f"{n_reports} misreports x {n_orders} orders exceeds {bound}"
        )
    # order -> runner: every serial order for rsd, the one key None otherwise
    if rsd:
        runners = {
            order: lambda mm, order=order: run_rsd(mm, order=order).matching
            for order in permutations(range(m.n_students))
        }
    elif isinstance(mechanism, str):
        named = MECHANISMS[mechanism]
        runners = {None: lambda mm: named(mm, seed=seed).matching}
    else:
        runners = {None: mechanism}

    def outcome_pos(mm: Market, run) -> tuple[int, Optional[tuple[int, int]]]:
        x = run(mm).student_contract(student)
        pair = (x.college, x.resource) if x is not None else None
        # misreported assignments are always drawn from the true acceptable
        # pairs, so the true-list position is always meaningful
        return m.pref_position(student, pair), pair

    truth = {order: outcome_pos(m, run) for order, run in runners.items()}

    for report in _misreports(true_pairs):
        if report == true_pairs:
            continue
        deviated = m.with_student_preferences(student, report)
        for order, run in runners.items():
            dev_pos, dev_pair = outcome_pos(deviated, run)
            true_pos, true_pair = truth[order]
            if dev_pos < true_pos:
                return {
                    "student": student,
                    "misreport": report,
                    "order": order,
                    "truthful_assignment": true_pair,
                    "deviating_assignment": dev_pair,
                }
    return None
