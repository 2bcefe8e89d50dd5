"""Cutoff profiles: per-(college, resource) admission thresholds.

A cutoff profile K assigns every college c and every resource r (the empty
resource included) a value K[c][r] in 0..n_students. A student is eligible
for the pair (c, r) when her 1-based rank in c's priority order is at most
K[c][r]. The induced matching hands every student her favorite eligible
acceptable pair. It need not be feasible; a profile is OPTIMAL when the
induced matching is feasible and no single increment() of a non-maximal entry
keeps it feasible.

Raising thresholds only ever admits more students, so eligibility is monotone
in K. The empty-resource cutoff dominates the others at the same college
(K[c][0] >= K[c][r]); increment() preserves that by raising the empty-resource
entry together with a non-empty entry that has caught up with it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .blocking import audit
from .market import EMPTY_RESOURCE, Contract, Market, Matching, _require_id, is_feasible


class CutoffProfile:
    """Immutable cutoff matrix; row = college, column 0 = empty resource.

    Raises ValueError when a value is outside 0..n_students or a non-empty
    entry exceeds its college's empty-resource entry.
    """

    __slots__ = ("values", "n_students")

    def __init__(self, values: Sequence[Sequence[int]], n_students: int):
        vals = tuple(tuple(int(v) for v in row) for row in values)
        for c, row in enumerate(vals):
            for r, v in enumerate(row):
                if not (0 <= v <= n_students):
                    raise ValueError(
                        f"cutoff K[{c}][{r}] = {v} outside 0..{n_students}"
                    )
            for r, v in enumerate(row[1:], start=1):
                if v > row[0]:
                    raise ValueError(
                        f"cutoff K[{c}][{r}] = {v} exceeds empty-resource "
                        f"cutoff {row[0]}"
                    )
        self.values = vals
        self.n_students = int(n_students)

    def __getitem__(self, c: int) -> tuple[int, ...]:
        _require_id("college", c, len(self.values))
        return self.values[c]

    def is_maximal(self, c: int, r: int) -> bool:
        row = self[c]
        _require_id("resource", r, len(row))
        return row[r] >= self.n_students

    def entries(self):
        """All (college, resource) index pairs."""
        for c, row in enumerate(self.values):
            for r in range(len(row)):
                yield (c, r)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.values]

    def __eq__(self, other):
        if not isinstance(other, CutoffProfile):
            return NotImplemented
        return self.values == other.values and self.n_students == other.n_students

    def __hash__(self):
        return hash((self.values, self.n_students))

    def __repr__(self):
        return f"CutoffProfile({list(map(list, self.values))})"


def zero_profile(m: Market) -> CutoffProfile:
    return CutoffProfile(
        [[0] * (m.n_resources + 1) for _ in range(m.n_colleges)], m.n_students
    )


def maximal_profile(m: Market) -> CutoffProfile:
    return CutoffProfile(
        [[m.n_students] * (m.n_resources + 1) for _ in range(m.n_colleges)],
        m.n_students,
    )


def eligible_contracts(m: Market, k: CutoffProfile) -> set[Contract]:
    """Acceptable contracts whose student passes the pair's cutoff."""
    out: set[Contract] = set()
    for s in range(m.n_students):
        for (c, r) in m.preferences[s]:
            rk = m._rank[c][s]
            if rk is not None and rk <= k.values[c][r]:
                out.add(Contract(s, c, r))
    return out


def induced_matching(m: Market, k: CutoffProfile) -> Matching:
    """Every student takes her favorite eligible pair. May be infeasible."""
    chosen = []
    for s in range(m.n_students):
        for (c, r) in m.preferences[s]:
            rk = m._rank[c][s]
            if rk is not None and rk <= k.values[c][r]:
                chosen.append(Contract(s, c, r))
                break
    return Matching(chosen)


def coupled_entries(row: Sequence[int], r: int) -> tuple[int, ...]:
    """The entries a one-step raise of (c, r) moves, given c's row: the
    empty-resource entry rides along when r has caught up with it."""
    if r != EMPTY_RESOURCE and row[r] == row[EMPTY_RESOURCE]:
        return (r, EMPTY_RESOURCE)
    return (r,)


def increment(m: Market, k: CutoffProfile, c: int, r: int) -> CutoffProfile:
    """One-step raise of entry (c, r), coupled with the empty resource.

    A non-empty entry that has caught up with its college's empty-resource
    entry cannot rise alone (the profile invariant K[c][0] >= K[c][r] would
    break), so both rise together in that case. Every other raise moves the
    single entry.

    Raises:
        ValueError: c or r is unknown, or the entry is already at n_students.
    """
    _require_id("college", c, m.n_colleges)
    _require_id("resource", r, m.n_resources + 1)
    if k.values[c][r] >= m.n_students:
        raise ValueError(f"cutoff K[{c}][{r}] is already maximal")
    rows = [list(row) for row in k.values]
    for x in coupled_entries(rows[c], r):
        rows[c][x] += 1
    return CutoffProfile(rows, k.n_students)


def is_optimal(m: Market, k: CutoffProfile) -> bool:
    """Feasible induced matching and no feasibility-preserving increment."""
    if not is_feasible(m, induced_matching(m, k)):
        return False
    for (c, r) in k.entries():
        if k.is_maximal(c, r):
            continue
        if is_feasible(m, induced_matching(m, increment(m, k, c, r))):
            return False
    return True


def cutoffs_of(m: Market, mu: Matching) -> CutoffProfile:
    """The unique optimal profile inducing a direct-envy stable matching.

    Entry (c, r) is set one below the rank of the best-ranked student who
    strictly prefers (c, r) to her assignment (so exactly the students above
    every unsatisfied claimant are eligible); entries nobody covets stay
    maximal.

    Raises:
        ValueError: mu is not direct-envy stable for m.
    """
    if not audit(m, mu).direct_envy_stable:
        raise ValueError("cutoffs_of needs a direct-envy stable matching")

    n = m.n_students
    rows = [[n] * (m.n_resources + 1) for _ in range(m.n_colleges)]
    for s in range(n):
        cur = mu.student_contract(s)
        limit = m.pref_position(
            s, (cur.college, cur.resource) if cur is not None else None
        )
        prefs = m.preferences[s]
        for pos in range(min(limit, len(prefs))):
            c, r = prefs[pos]
            rk = m._rank[c][s]
            if rk is not None and rk - 1 < rows[c][r]:
                rows[c][r] = rk - 1
    # A list may name (c, r) without the plain (c, 0) fallback, letting a raw
    # resource row float above the plain row. Clamping is safe: a student
    # held at (c, r) beyond the plain row's cut would mean someone at least
    # as good wants plain admission there, and that claim is a direct envy
    # block (or an undominatable waste block), which the audit above already
    # ruled out.
    for row in rows:
        for r in range(1, len(row)):
            if row[r] > row[0]:
                row[r] = row[0]
    return CutoffProfile(rows, n)
