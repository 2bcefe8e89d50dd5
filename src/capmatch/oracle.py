"""Brute-force ground truth for small markets.

Everything here trades speed for certainty: exhaustive enumeration of
feasible individually rational matchings, full stability censuses, Pareto
checks against the whole matching set, and an exhaustive manipulation probe.
All entry points guard against combinatorial blowup with an explicit bound
and raise OracleBoundError instead of hanging.

The Pareto step is a skyline (the maxima of a set of vectors; Kung, Luccio
& Preparata, JACM 1975). Each matching becomes one row of students'
preference positions, built once per census, and a row is dominated when
another row is componentwise <= and has a strictly smaller sum. That test
runs column by column over blocks of rows, so its memory stays bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import permutations
from math import factorial, perm, prod
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .blocking import BlockingReport, audit
from .market import Contract, Market, Matching, _require_known_pairs, fits

DEFAULT_BOUND = 10_000_000
# cells of one block of the domination test: about 4M booleans per array
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
        OracleBoundError: the unpruned choice tree exceeds `bound` leaves.
    """
    _require_known_pairs(m)
    sizes = [len(m.preferences[s]) + 1 for s in range(m.n_students)]
    if prod(sizes) > bound:
        raise OracleBoundError(
            f"choice tree has about {prod(sizes):.3g} leaves, bound is {bound}"
        )

    ccount = [0] * m.n_colleges
    rcount = [0] * (m.n_resources + 1)
    chosen: list[Contract] = []
    out: list[Matching] = []

    def walk(s: int) -> None:
        if s == m.n_students:
            out.append(Matching(chosen))
            return
        walk(s + 1)  # unmatched branch first
        for (c, r) in m.preferences[s]:
            if fits(m, ccount, rcount, c, r):
                ccount[c] += 1
                rcount[r] += 1
                chosen.append(Contract(s, c, r))
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
    reports = [audit(m, mu) for mu in matchings]
    P = _position_matrix(m, matchings)
    pareto = tuple(int(i) for i in np.flatnonzero(~_dominated_rows(P, P)))
    # every set but the last, the Pareto skyline, is a report flag
    flagged = (
        tuple(i for i, rep in enumerate(reports) if getattr(rep, name))
        for name in CENSUS_SETS[:-1]
    )
    return StabilityCensus(tuple(matchings), tuple(reports), *flagged, pareto)


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
