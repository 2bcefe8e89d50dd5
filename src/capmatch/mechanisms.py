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
better, delta-check feasibility (`market.fits`), revert the raise if the
move breaks it.

The engine keeps that matching in flat tables of ints, built once per run.
An entry (c, r) is the index c * (R + 1) + r. Each student has a position
row, her list position of every entry (the first occurrence winning, and
one past the end of her list for an entry she does not list), and holds
two ints: the position she holds (her list length when she is unmatched)
and the entry she holds. A raise reads list items and compares ints; no
dict is consulted and no Contract is built until the run ends.

imc, idc and iuc raise through one body, _Engine.try_raise, to which the
caller hands the admitted student and her position row; imc works them
out once per value level, for every subset it tries there. irc, the
hottest loop, inlines the same body for its one or two entries and keeps
its drawable entries as a sorted index list, so a draw costs one index
instead of a scan of every entry. All four re-seat through
_Engine.reseat, the one place that calls `fits`.

imc, idc and iuc share one pass loop: a random order over their colleges or
entries, visited in full, repeated until a pass changes nothing. imc builds
each level's candidate subsets where it visits them, and a size that offers
one candidate subset (all of the level's free entries, or none of them)
neither draws nor builds a combinations list.

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
from bisect import bisect_left
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
    """The induced matching of a growing cutoff profile, kept as flat ints.

    pos[s] is student s's position row: pos[s][c * width + r] is her list
    position of (c, r), the first occurrence winning, or len(her list) + 1
    when she does not list it (width = n_resources + 1). held[s] is the
    position she holds, len(her list) when she is unmatched, and entry[s]
    the index c * width + r of the pair she holds, -1 when she is unmatched.

    Invariant: held and entry always describe the induced matching of K, and
    that matching is feasible. try_raise and reseat keep them in sync;
    finish builds the Contracts.
    """

    __slots__ = ("m", "width", "K", "pos", "held", "entry", "ccount", "rcount", "moves")

    def __init__(self, m: Market):
        width = m.n_resources + 1
        size = m.n_colleges * width
        self.m = m
        self.width = width
        self.K = [[0] * width for _ in range(m.n_colleges)]
        self.pos: list[list[int]] = []
        for plist, pos_map in zip(m.preferences, m._pref_pos):
            row = [len(plist) + 1] * size
            for (c, r), p in pos_map.items():
                row[c * width + r] = p
            self.pos.append(row)
        self.held = list(map(len, m.preferences))
        self.entry = [-1] * m.n_students
        self.ccount = [0] * m.n_colleges
        self.rcount = [0] * width
        self.moves: list[tuple[int, tuple[int, ...]]] = []

    def try_raise(self, c: int, rs: tuple[int, ...], s: int, prow: list[int]) -> bool:
        """+1 on college c's entries rs, all of which sit at one common value
        v < n_students. s is priorities[c][v], the only student the raise
        makes eligible, and prow her position row. Kept iff the induced
        matching stays feasible."""
        base = c * self.width
        best = self.held[s]
        best_r = -1
        for r in rs:
            if prow[base + r] < best:
                best = prow[base + r]
                best_r = r
        if best_r >= 0 and not self.reseat(s, c, best_r, best):
            return False
        row = self.K[c]
        for r in rs:
            row[r] += 1
        self.moves.append((c, rs))
        return True

    def reseat(self, s: int, c: int, r: int, p: int) -> bool:
        """Move s onto (c, r), at position p of her list and better than the
        pair she holds, iff the matching stays feasible."""
        ccount, rcount, width = self.ccount, self.rcount, self.width
        e = self.entry[s]
        c_was, r_was = divmod(e, width) if e >= 0 else (-1, -1)
        if not fits(self.m, ccount, rcount, c, r, c_was == c, r_was == r):
            return False
        if e >= 0:
            ccount[c_was] -= 1
            rcount[r_was] -= 1
        self.held[s] = p
        self.entry[s] = c * width + r
        ccount[c] += 1
        rcount[r] += 1
        return True

    def finish(self, mechanism: str, seed) -> RunTrace:
        width = self.width
        matching = Matching._of_sorted(
            tuple(
                Contract(s, *divmod(e, width))
                for s, e in enumerate(self.entry)
                if e >= 0
            )
        )
        return RunTrace(
            mechanism=mechanism,
            seed=seed,
            moves=tuple(self.moves),
            matching=matching,
            profile=CutoffProfile(self.K, self.m.n_students),
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
    of all C * (R + 1) entries. A failed entry leaves `active` at the drawn
    index and waits in `failed`; an accepted raise sorts the failures back
    in and bisects out the entries it pushed to n.

    The raise is _Engine.try_raise written out for the drawn entry i and
    the empty-resource entry that may join it, so the loop makes no call
    but the draw and, for a student who likes the new pair better, the
    re-seat.
    """
    _require_runnable(m)
    draws = Draws(seed)
    eng = _Engine(m)
    n = m.n_students
    width = eng.width
    K, pos, held, reseat = eng.K, eng.pos, eng.held, eng.reseat
    priorities, integers, moves = m.priorities, draws.integers, eng.moves
    active = list(range(m.n_colleges * width)) if n else []
    failed: list[int] = []
    while active:
        j = integers(len(active))
        i = active[j]
        c, r = divmod(i, width)
        row = K[c]
        v = row[r]
        s = priorities[c][v]
        # entry i is (c, r); the empty-resource entry i - r rides along
        # when r has caught up with it
        prow = pos[s]
        best = prow[i]
        best_r = r
        if r and v == row[EMPTY_RESOURCE]:
            rs = (r, EMPTY_RESOURCE)
            if prow[i - r] < best:
                best = prow[i - r]
                best_r = EMPTY_RESOURCE
        else:
            rs = (r,)
        if best < held[s] and not reseat(s, c, best_r, best):
            del active[j]
            failed.append(i)
            continue
        for x in rs:
            row[x] += 1
        moves.append((c, rs))
        if failed:
            active += failed
            active.sort()
            failed.clear()
        if v + 1 == n:  # the raised entries can rise no further
            for x in rs:
                del active[bisect_left(active, i - r + x)]
    return eng.finish("irc", seed)


def _passes(draws: Draws, k: int, step: Callable[[int], bool]) -> None:
    """Run step over random orders of range(k) until a pass changes nothing.
    Each pass runs in full: the draws of its later steps are in the trace."""
    while any([step(i) for i in draws.permutation(k)]):
        pass


def run_imc(m: Market, seed: Optional[int] = None) -> RunTrace:
    """Per-college simultaneous raises, colleges visited in random passes.

    A visit to college c scans its cutoff values bottom up and applies the
    first feasible simultaneous raise of a largest-possible entry subset.
    At each value level, subsets are searched in decreasing size and in
    random order within a size; a size with one candidate subset (all of
    the level's free entries, or none of them) draws nothing, as a one-item
    shuffle reads no word. Whenever the empty-resource entry sits at the
    level, every candidate subset must contain it (a non-empty entry may
    never climb above the empty-resource entry). Scanning upward past a
    stuck bottom level keeps the college moving when only its higher-valued
    entries can still advance; termination then certifies that no single
    coupled increment is feasible anywhere, i.e. the profile is optimal.
    """
    _require_runnable(m)
    draws = Draws(seed)
    eng = _Engine(m)
    n = m.n_students
    K, pos, priorities, try_raise = eng.K, eng.pos, m.priorities, eng.try_raise
    resources = range(1, eng.width)

    def visit(c: int) -> bool:
        row = K[c]
        for v in sorted(set(row)):
            if v == n:
                break
            s = priorities[c][v]  # every raise at this level admits her
            prow = pos[s]
            # EMPTY_RESOURCE is entry 0; a subset must be non-empty, so the
            # free part may be empty only when the empty-resource entry is
            # fixed in it
            fixed = (EMPTY_RESOURCE,) if row[EMPTY_RESOURCE] == v else ()
            free = tuple([r for r in resources if row[r] == v])
            if try_raise(c, fixed + free, s, prow):
                return True
            for k in range(len(free) - 1, 0, -1):
                combos = list(itertools.combinations(free, k))
                for i in draws.permutation(len(combos)):
                    if try_raise(c, fixed + combos[i], s, prow):
                        return True
            if fixed and free and try_raise(c, fixed, s, prow):
                return True
        return False

    _passes(draws, m.n_colleges, visit)
    return eng.finish("imc", seed)


def run_idc(m: Market, seed: Optional[int] = None) -> RunTrace:
    """Entries in random order, each pushed as far as it can go."""
    _require_runnable(m)
    eng = _Engine(m)
    n = m.n_students
    width = eng.width
    K, pos, priorities, try_raise = eng.K, eng.pos, m.priorities, eng.try_raise

    def push(i: int) -> bool:
        c, r = divmod(i, width)
        row = K[c]
        ranked = priorities[c]
        changed = False
        while row[r] < n:
            s = ranked[row[r]]
            if not try_raise(c, coupled_entries(row, r), s, pos[s]):
                break
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
    all_rs = tuple(range(eng.width))

    def step(c: int) -> bool:
        v = eng.K[c][EMPTY_RESOURCE]
        if v == n:
            return False
        s = m.priorities[c][v]
        return eng.try_raise(c, all_rs, s, eng.pos[s])

    _passes(Draws(seed), m.n_colleges, step)
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
