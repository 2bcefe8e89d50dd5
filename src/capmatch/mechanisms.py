"""Matching mechanisms: four cutoff-raising procedures and two serial ones.

The cutoff mechanisms all start from the all-zero profile (nobody eligible
anywhere) and raise entries step by step, keeping a raise only when the
induced matching stays feasible. They differ in which entries they try:

  irc  uniformly random non-maximal entry, one coupled +1 at a time
  imc  per college, the largest simultaneously raisable set of entries at the
       lowest raisable value level
  idc  random order over entries, each pushed as far as it goes
  iuc  one scalar per college, all of its entries rising in lockstep

Raising an entry from value v only ever admits the single student ranked
v + 1 at that college, so the induced matching is maintained incrementally:
re-seat that student onto her favorite newly opened pair when she likes it
better, delta-check feasibility, revert the raise if the move breaks it.

irc keeps its drawable entries as a sorted index list, so a draw costs one
index and a bisect instead of a scan of every entry.

imc, idc and iuc share one pass loop: a random order over their colleges or
entries, visited in full, repeated until a pass changes nothing. imc builds
each level's candidate subsets where it visits them, and a size that offers
one candidate subset draws nothing.

rsd lets students pick their favorite still-feasible contract in a random
order. csd repeatedly grants, among all unmatched students' current favorite
feasible contracts, the one whose student the target college ranks best. It
keeps those contracts in a heap keyed by rank and re-seats only the students
whose college or resource a grant fills, so a run costs about as much as
walking every preference list once plus a heap operation per grant and per
re-seat, not a scan of every unmatched student per grant.

All six draw from `_draws.Draws(seed)`, a pure-Python replica of the
`integers` and `permutation` of numpy's `Generator` on the same seed. It
reads PCG64's raw words, which numpy's compatibility policy (NEP 19) keeps
fixed, and skips numpy's per-call overhead. Each mechanism draws exactly as
its first loop did on the `Generator`, with the same bounds, the same
elements and the same numbers, so its seeded traces equal those of the
reference copies kept in tests/test_golden.py.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ._draws import Draws
from .cutoffs import CutoffProfile, coupled_entries, induced_matching
from .market import (
    EMPTY_RESOURCE,
    Contract,
    Market,
    Matching,
    _require_known_pairs,
    fits,
)

MECHANISM_ORDER = ("irc", "imc", "idc", "iuc", "rsd", "csd")


@dataclass(frozen=True)
class RunTrace:
    """Everything needed to replay one mechanism run.

    moves is a tuple of (college, entries) raises for the cutoff mechanisms
    and a tuple of granted Contracts for rsd/csd. profile is the terminal
    cutoff profile (cutoff mechanisms only), order the realized student order
    (rsd only).
    """

    mechanism: str
    seed: Optional[int]
    moves: tuple
    matching: Matching
    profile: Optional[CutoffProfile] = None
    order: Optional[tuple[int, ...]] = None


def replay_trace(m: Market, trace: RunTrace) -> Matching:
    """Recompute the final matching from a trace's moves alone."""
    if trace.mechanism in ("rsd", "csd"):
        return Matching(trace.moves)
    rows = [[0] * (m.n_resources + 1) for _ in range(m.n_colleges)]
    for c, rs in trace.moves:
        for r in rs:
            rows[c][r] += 1
    return induced_matching(m, CutoffProfile(rows, m.n_students))


def _require_runnable(m: Market) -> None:
    """Mechanisms index priority lists positionally, so they must be
    permutations, and count by the listed ids, so those must be known (both
    worked out once, when the market is built)."""
    _require_known_pairs(m)
    if m._non_permutation_priorities:
        c = m._non_permutation_priorities[0]
        raise ValueError(f"college {c} priority list is not a permutation")


class _Engine:
    """Incrementally maintained induced matching of a growing cutoff profile.

    Invariant: assign always equals the induced matching of K, and the
    matching is feasible. try_raise keeps them in sync.
    """

    __slots__ = ("m", "K", "assign", "ccount", "rcount", "moves")

    def __init__(self, m: Market):
        self.m = m
        self.K = [[0] * (m.n_resources + 1) for _ in range(m.n_colleges)]
        self.assign: list[Optional[Contract]] = [None] * m.n_students
        self.ccount = [0] * m.n_colleges
        self.rcount = [0] * (m.n_resources + 1)
        self.moves: list[tuple[int, tuple[int, ...]]] = []

    def try_raise(self, c: int, rs: tuple[int, ...]) -> bool:
        """+1 on college c's entries rs, all of which sit at one common value
        v < n_students. Kept iff the induced matching stays feasible."""
        m = self.m
        row = self.K[c]
        v = row[rs[0]]
        s_star = m.priorities[c][v]  # the only newly eligible student
        pos_map = m._pref_pos[s_star]

        best_pos = None
        best_r = -1
        for r in rs:
            p = pos_map.get((c, r))
            if p is not None and (best_pos is None or p < best_pos):
                best_pos = p
                best_r = r

        cur = self.assign[s_star]
        if cur is None:
            cur_pos = len(m.preferences[s_star])
        else:
            cur_pos = pos_map[(cur.college, cur.resource)]

        if best_pos is not None and best_pos < cur_pos:
            # s_star switches to (c, best_r); check the move keeps feasibility
            at_c = cur is not None and cur.college == c
            had = cur is not None and cur.resource == best_r
            if not fits(m, self.ccount, self.rcount, c, best_r, at_c, had):
                return False
            if cur is not None:
                self.ccount[cur.college] -= 1
                self.rcount[cur.resource] -= 1
            self.assign[s_star] = Contract(s_star, c, best_r)
            self.ccount[c] += 1
            self.rcount[best_r] += 1

        for r in rs:
            row[r] += 1
        self.moves.append((c, tuple(rs)))
        return True

    def finish(self, mechanism: str, seed) -> RunTrace:
        matching = Matching(x for x in self.assign if x is not None)
        profile = CutoffProfile(self.K, self.m.n_students)
        return RunTrace(
            mechanism=mechanism,
            seed=seed,
            moves=tuple(self.moves),
            matching=matching,
            profile=profile,
        )


def run_irc(m: Market, seed: Optional[int] = None) -> RunTrace:
    """Random single-entry raises until no entry can move.

    Draws a uniformly random non-maximal entry, tries its one-step raise, and
    reverts on infeasibility. Entries that failed since the last accepted
    raise are skipped (a failed raise is a no-op, so skipping just censors
    wasted draws); any accepted raise clears that memory. Terminates when
    every non-maximal entry has a recorded failure.

    The drawable entries are kept as `active`, a sorted list of indices into
    the college-major entry order, so a draw costs one index and not a scan
    of all C * (R + 1) entries. A failed entry leaves `active` and waits in
    `failed`; an accepted raise puts the failures back and drops the entries
    it pushed to n. Each update is a bisect on a list of at most C * (R + 1)
    indices.
    """
    _require_runnable(m)
    draws = Draws(seed)
    eng = _Engine(m)
    n = m.n_students
    width = m.n_resources + 1
    active = list(range(m.n_colleges * width)) if n else []
    failed: list[int] = []
    while active:
        i = active[draws.integers(len(active))]
        c, r = divmod(i, width)
        rs = coupled_entries(eng.K[c], r)
        if eng.try_raise(c, rs):
            for j in failed:
                insort(active, j)
            failed.clear()
            row = eng.K[c]
            for x in rs:
                if row[x] == n:
                    del active[bisect_left(active, c * width + x)]
        else:
            del active[bisect_left(active, i)]
            failed.append(i)
    return eng.finish("irc", seed)


def _imc_college_step(eng: _Engine, c: int, draws: Draws) -> bool:
    """One IMC visit to college c: scan cutoff values bottom up and apply the
    first feasible simultaneous raise of a largest-possible entry subset.

    At each value level, subsets are searched in decreasing size and in
    random order within a size; a size with one candidate subset draws
    nothing, as a one-item shuffle reads no word. Whenever the empty-resource
    entry sits at the level, every candidate subset must contain it (a
    non-empty entry may never climb above the empty-resource entry).
    Scanning upward past a stuck bottom level keeps the college moving when
    only its higher-valued entries can still advance; termination then
    certifies that no single coupled increment is feasible anywhere, i.e.
    the profile is optimal.
    """
    row = eng.K[c]
    n = eng.m.n_students
    for v in sorted(set(row)):
        if v == n:
            break
        # EMPTY_RESOURCE is entry 0; a subset must be non-empty, so the free
        # part may be empty only when the empty-resource entry is fixed in it
        fixed = (EMPTY_RESOURCE,) if row[EMPTY_RESOURCE] == v else ()
        free = [r for r in range(1, len(row)) if row[r] == v]
        for k in range(len(free), -len(fixed), -1):
            combos = list(itertools.combinations(free, k))
            for i in draws.permutation(len(combos)) if len(combos) > 1 else (0,):
                if eng.try_raise(c, fixed + combos[i]):
                    return True
    return False


def _passes(draws: Draws, k: int, step: Callable[[int], bool]) -> None:
    """Run step over random orders of range(k) until a pass changes nothing.
    Each pass runs in full: the draws of its later steps are in the trace."""
    while any([step(i) for i in draws.permutation(k)]):
        pass


def run_imc(m: Market, seed: Optional[int] = None) -> RunTrace:
    """Per-college simultaneous raises, colleges visited in random passes."""
    _require_runnable(m)
    draws = Draws(seed)
    eng = _Engine(m)
    _passes(draws, m.n_colleges, lambda c: _imc_college_step(eng, c, draws))
    return eng.finish("imc", seed)


def run_idc(m: Market, seed: Optional[int] = None) -> RunTrace:
    """Entries in random order, each pushed as far as it can go."""
    _require_runnable(m)
    eng = _Engine(m)
    n = m.n_students
    width = m.n_resources + 1

    def push(i: int) -> bool:
        c, r = divmod(i, width)
        row = eng.K[c]
        changed = False
        while row[r] < n and eng.try_raise(c, coupled_entries(row, r)):
            changed = True
        return changed

    _passes(Draws(seed), m.n_colleges * width, push)
    return eng.finish("idc", seed)


def run_iuc(m: Market, seed: Optional[int] = None) -> RunTrace:
    """One scalar per college; all of its entries rise in lockstep.

    Keeping every entry of a college equal means any admitted student is
    eligible for every pair there, so the result can carry no envy blocks and
    no resource-kind waste blocks regardless of where the scalars get stuck.
    """
    _require_runnable(m)
    eng = _Engine(m)
    n = m.n_students
    all_rs = tuple(range(m.n_resources + 1))
    _passes(
        Draws(seed),
        m.n_colleges,
        lambda c: eng.K[c][EMPTY_RESOURCE] < n and eng.try_raise(c, all_rs),
    )
    return eng.finish("iuc", seed)


def run_rsd(
    m: Market,
    seed: Optional[int] = None,
    order: Optional[Sequence[int]] = None,
) -> RunTrace:
    """Students pick greedily in a random (or given) serial order."""
    _require_runnable(m)
    if order is None:
        order = Draws(seed).permutation(m.n_students)
    else:
        order = [int(s) for s in order]
        if sorted(order) != list(range(m.n_students)):
            raise ValueError("order must be a permutation of the students")

    ccount = [0] * m.n_colleges
    rcount = [0] * (m.n_resources + 1)
    granted: list[Contract] = []
    for s in order:
        for (c, r) in m.preferences[s]:
            if fits(m, ccount, rcount, c, r):
                granted.append(Contract(s, c, r))
                ccount[c] += 1
                rcount[r] += 1
                break
    return RunTrace(
        mechanism="rsd",
        seed=seed,
        moves=tuple(granted),
        matching=Matching(granted),
        order=tuple(order),
    )


def run_csd(m: Market, seed: Optional[int] = None) -> RunTrace:
    """Colleges' favorite claimant goes first, one grant per round.

    Each round looks at every unmatched student's favorite still-feasible
    contract and grants the one whose student is ranked best by its college,
    breaking rank ties uniformly at random among the tied students in
    ascending id order. Capacities only ever shrink during a run, so each
    student's scan position never moves backwards.

    A heap holds (rank at the current contract, student, version) per
    unmatched student with options left, and every college and resource keeps
    the students whose current contract uses it. A contract only becomes
    infeasible when its college or resource fills, so a grant that fills one
    re-seats just that list's students: their pointers advance, their
    versions bump (stale heap entries are skipped) and fresh entries go in.
    A round pops every valid entry at the minimum rank, which comes out in
    ascending student id, and pushes the losers back. A run walks each
    preference list at most once and makes one heap push per seat, re-seat
    and returned loser, instead of scanning every unmatched student per
    grant.
    """
    _require_runnable(m)
    draws = Draws(seed)
    prefs = m.preferences
    ccount = [0] * m.n_colleges
    rcount = [0] * (m.n_resources + 1)
    # index of s's current contract in her list; len(prefs[s]) once she is
    # matched or out of options
    pointer = [0] * m.n_students
    version = [0] * m.n_students
    by_college: list[list[int]] = [[] for _ in range(m.n_colleges)]
    by_resource: list[list[int]] = [[] for _ in range(m.n_resources + 1)]
    heap: list[tuple[int, int, int]] = []
    granted: list[Contract] = []

    def seat(s: int) -> None:
        """Advance s to her favorite feasible contract and queue her there."""
        plist = prefs[s]
        i = pointer[s]
        while i < len(plist):
            c, r = plist[i]
            if fits(m, ccount, rcount, c, r):
                break
            i += 1
        pointer[s] = i
        version[s] += 1  # also when she runs out, so no old entry stays valid
        if i < len(plist):
            c, r = plist[i]
            by_college[c].append(s)
            by_resource[r].append(s)
            heapq.heappush(heap, (m._rank[c][s], s, version[s]))

    def reseat(watchers: list[int], side: int, full: int) -> None:
        """Re-seat the watchers whose current contract still uses the filled
        college (side 0) or resource (side 1); the list is spent after."""
        for s in watchers:
            i = pointer[s]
            if i < len(prefs[s]) and prefs[s][i][side] == full:
                seat(s)
        watchers.clear()

    for s in range(m.n_students):
        seat(s)
    while heap:
        key, s, v = heapq.heappop(heap)
        if v != version[s]:
            continue
        ties = [(key, s, v)]
        while heap and heap[0][0] == key:
            entry = heapq.heappop(heap)
            if entry[2] == version[entry[1]]:
                ties.append(entry)
        k = draws.integers(len(ties))
        _, s, _ = ties.pop(k)
        for entry in ties:
            heapq.heappush(heap, entry)
        c, r = prefs[s][pointer[s]]
        granted.append(Contract(s, c, r))
        pointer[s] = len(prefs[s])
        ccount[c] += 1
        rcount[r] += 1
        if ccount[c] == m.college_quotas[c]:
            reseat(by_college[c], 0, c)
        if r != EMPTY_RESOURCE and rcount[r] == m.resource_quotas[r - 1]:
            reseat(by_resource[r], 1, r)

    return RunTrace(
        mechanism="csd",
        seed=seed,
        moves=tuple(granted),
        matching=Matching(granted),
    )


MECHANISMS = {
    "irc": run_irc,
    "imc": run_imc,
    "idc": run_idc,
    "iuc": run_iuc,
    "rsd": run_rsd,
    "csd": run_csd,
}


def college_proposing_da(m: Market) -> Matching:
    """Reference deferred acceptance for seat-only markets, colleges proposing.

    Used to pin down what every cutoff mechanism collapses to when there are
    no non-empty resources.

    Raises:
        ValueError: the market has non-empty resources.
    """
    _require_runnable(m)
    if m.n_resources != 0:
        raise ValueError("reference DA is defined for seat-only markets")
    holds: list[Optional[int]] = [None] * m.n_students
    count = [0] * m.n_colleges
    ptr = [0] * m.n_colleges
    active = deque(range(m.n_colleges))
    while active:
        c = active.popleft()
        while count[c] < m.college_quotas[c] and ptr[c] < m.n_students:
            s = m.priorities[c][ptr[c]]
            ptr[c] += 1
            if not m.acceptable(s, c, EMPTY_RESOURCE):
                continue
            h = holds[s]
            if h is None:
                holds[s] = c
                count[c] += 1
            elif m.pref_position(s, (c, EMPTY_RESOURCE)) < m.pref_position(
                s, (h, EMPTY_RESOURCE)
            ):
                holds[s] = c
                count[c] += 1
                count[h] -= 1
                active.append(h)
    return Matching(
        Contract(s, c, EMPTY_RESOURCE)
        for s, c in enumerate(holds)
        if c is not None
    )
