"""Core market model: students, colleges, capped regional resources, contracts.

A market has n students, a set of colleges with seat quotas, and a set of
non-empty resources, each with a unit quota and a region (the colleges allowed
to hand that resource out). Resource id 0 is reserved for the empty resource:
admission without any unit attached. It is never capped and its region is all
colleges. Students rank (college, resource) pairs; colleges rank students.

A matching is a set of contracts (student, college, resource), at most one per
student. Feasibility = college quotas respected, every non-empty resource used
at most its quota many times and only inside its region. Individual
rationality = every student finds her own contract acceptable.
"""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple, Optional, Sequence

EMPTY_RESOURCE = 0


class Contract(NamedTuple):
    """One (student, college, resource) triple. resource 0 means seat only."""

    student: int
    college: int
    resource: int


Pair = tuple[int, int]  # (college, resource) as seen from a student's list


class Market:
    """Immutable market instance.

    Construction is permissive: semantically broken inputs (zero quotas,
    non-permutation priorities, duplicate preference entries) still build, so
    they can be diagnosed by validate_market(). Structurally impossible input
    (mismatched list lengths, ids that cannot be indexed) raises ValueError.

    Args:
        n_students: number of students; ids are 0..n_students-1.
        college_quotas: seat quota per college; ids are 0..len-1.
        resource_quotas: unit quota per non-empty resource; index i is
            resource id i+1 (id 0 is the empty resource).
        regions: per non-empty resource, iterable of college ids allowed to
            distribute it; aligned with resource_quotas.
        priorities: per college, student ids best first.
        preferences: per student, (college, resource) pairs best first. Pairs
            never mention contracts the student finds unacceptable.
    """

    def __init__(
        self,
        n_students: int,
        college_quotas: Sequence[int],
        resource_quotas: Sequence[int],
        regions: Sequence[Iterable[int]],
        priorities: Sequence[Sequence[int]],
        preferences: Sequence[Sequence[Pair]],
    ):
        if n_students < 0:
            raise ValueError("n_students must be >= 0")
        if len(resource_quotas) != len(regions):
            raise ValueError("resource_quotas and regions must align")
        if len(priorities) != len(college_quotas):
            raise ValueError("need one priority list per college")
        if len(preferences) != n_students:
            raise ValueError("need one preference list per student")

        self.n_students = int(n_students)
        self.college_quotas = tuple(int(q) for q in college_quotas)
        self.n_colleges = len(self.college_quotas)
        self.resource_quotas = tuple(int(q) for q in resource_quotas)
        self.n_resources = len(self.resource_quotas)  # non-empty only
        self.regions = tuple(frozenset(int(c) for c in reg) for reg in regions)
        self.priorities = tuple(tuple(int(s) for s in p) for p in priorities)
        self.preferences = tuple(
            tuple((int(c), int(r)) for (c, r) in prefs) for prefs in preferences
        )

        # rank lookup: _rank[c][s] = 1-based position of s in c's list, or None.
        # Permissive: duplicate entries keep the first position, missing
        # students stay None; validate_market reports both.
        self._rank: list[list[Optional[int]]] = []
        for plist in self.priorities:
            row: list[Optional[int]] = [None] * self.n_students
            for pos, s in enumerate(plist):
                if 0 <= s < self.n_students and row[s] is None:
                    row[s] = pos + 1
            self._rank.append(row)
        # colleges whose list is not a permutation of the students: a list of
        # length n that ranks every student holds each exactly once
        self._non_permutation_priorities = tuple(
            c
            for c, (plist, row) in enumerate(zip(self.priorities, self._rank))
            if len(plist) != self.n_students or None in row
        )

        # _pref_pos[s][(c, r)] = 0-based position, first occurrence wins.
        self._pref_pos: list[dict[Pair, int]] = []
        for prefs in self.preferences:
            pos_map: dict[Pair, int] = {}
            for pos, pair in enumerate(prefs):
                if pair not in pos_map:
                    pos_map[pair] = pos
            self._pref_pos.append(pos_map)

    # -- basic lookups -----------------------------------------------------

    def resource_quota(self, r: int) -> int:
        """Quota of non-empty resource r (r >= 1)."""
        return self.resource_quotas[r - 1]

    def region(self, r: int) -> frozenset[int]:
        """Region of non-empty resource r (r >= 1)."""
        return self.regions[r - 1]

    def in_region(self, c: int, r: int) -> bool:
        """True iff college c may distribute resource r (always for r = 0)."""
        return r == EMPTY_RESOURCE or c in self.regions[r - 1]

    def acceptable(self, s: int, c: int, r: int) -> bool:
        """True iff (c, r) appears in student s's preference list."""
        return (c, r) in self._pref_pos[s]

    def pref_position(self, s: int, pair: Optional[Pair]) -> int:
        """Totalized position of a pair in s's list.

        Listed pairs get their 0-based index, None (unmatched) gets the list
        length, unlisted pairs get length + 1. Smaller is better, so this
        makes "unmatched" strictly better than any unacceptable contract.
        """
        if pair is None:
            return len(self.preferences[s])
        pos = self._pref_pos[s].get(pair)
        if pos is not None:
            return pos
        return len(self.preferences[s]) + 1

    def with_student_preferences(self, s: int, pairs: Sequence[Pair]) -> "Market":
        """Copy of the market with student s's list replaced (for probes)."""
        prefs = list(self.preferences)
        prefs[s] = tuple((int(c), int(r)) for (c, r) in pairs)
        return Market(
            self.n_students,
            self.college_quotas,
            self.resource_quotas,
            self.regions,
            self.priorities,
            prefs,
        )

    def __eq__(self, other):
        if not isinstance(other, Market):
            return NotImplemented
        return (
            self.n_students == other.n_students
            and self.college_quotas == other.college_quotas
            and self.resource_quotas == other.resource_quotas
            and self.regions == other.regions
            and self.priorities == other.priorities
            and self.preferences == other.preferences
        )

    def __repr__(self):
        return (
            f"Market({self.n_students} students, {self.n_colleges} colleges, "
            f"{self.n_resources} non-empty resources)"
        )


def rank(m: Market, c: int, s: int) -> int:
    """1-based position of student s in college c's priority order.

    Raises:
        ValueError: if s does not appear in c's priority list.
    """
    r = m._rank[c][s]
    if r is None:
        raise ValueError(f"student {s} not ranked by college {c}")
    return r


def prefers(m: Market, s: int, a: Optional[Pair], b: Optional[Pair]) -> bool:
    """Strict preference of student s between two options.

    Options are (college, resource) pairs or None for staying unmatched. The
    relation is totalized: being unmatched beats any unlisted pair, any listed
    pair beats being unmatched. Equal options are never preferred.
    """
    return m.pref_position(s, a) < m.pref_position(s, b)


class Matching:
    """Immutable set of contracts with at most one contract per student.

    Lookup maps are precomputed: per-student contract, per-college contract
    tuple, per-resource contract tuple, plus count dicts used by feasibility
    checks. Equality and hashing go through the contract frozenset.
    """

    __slots__ = (
        "contracts",
        "_by_student",
        "_by_college",
        "_by_resource",
        "college_counts",
        "resource_counts",
    )

    def __init__(self, contracts: Iterable[Contract] = ()):
        items = sorted(Contract(*x) for x in contracts)
        by_student: dict[int, Contract] = {}
        by_college: dict[int, list[Contract]] = {}
        by_resource: dict[int, list[Contract]] = {}
        for x in items:
            if x.student in by_student:
                raise ValueError(f"student {x.student} holds two contracts")
            by_student[x.student] = x
            by_college.setdefault(x.college, []).append(x)
            by_resource.setdefault(x.resource, []).append(x)
        self.contracts: frozenset[Contract] = frozenset(items)
        self._by_student = by_student
        self._by_college = {c: tuple(v) for c, v in by_college.items()}
        self._by_resource = {r: tuple(v) for r, v in by_resource.items()}
        self.college_counts = {c: len(v) for c, v in self._by_college.items()}
        self.resource_counts = {r: len(v) for r, v in self._by_resource.items()}

    def student_contract(self, s: int) -> Optional[Contract]:
        return self._by_student.get(s)

    def college_contracts(self, c: int) -> tuple[Contract, ...]:
        return self._by_college.get(c, ())

    def resource_contracts(self, r: int) -> tuple[Contract, ...]:
        return self._by_resource.get(r, ())

    def __contains__(self, x) -> bool:
        return x in self.contracts

    def __iter__(self):
        return iter(sorted(self.contracts))

    def __len__(self):
        return len(self.contracts)

    def __eq__(self, other):
        if not isinstance(other, Matching):
            return NotImplemented
        return self.contracts == other.contracts

    def __hash__(self):
        return hash(self.contracts)

    def __repr__(self):
        inner = ", ".join(f"({x.student},{x.college},{x.resource})" for x in self)
        return "Matching{" + inner + "}"


def _check_ids(m: Market, mu: Matching) -> None:
    for x in mu.contracts:
        if not (0 <= x.student < m.n_students):
            raise ValueError(f"unknown student id {x.student}")
        if not (0 <= x.college < m.n_colleges):
            raise ValueError(f"unknown college id {x.college}")
        if not (0 <= x.resource <= m.n_resources):
            raise ValueError(f"unknown resource id {x.resource}")


def is_feasible(m: Market, mu: Matching) -> bool:
    """Feasibility of a matching: quotas and regions respected.

    College c holds at most quota(c) contracts; each non-empty resource r
    appears at most quota(r) times and only at colleges inside its region.
    The empty resource is never constrained. Acceptability plays no role here.
    """
    _check_ids(m, mu)
    for c, cnt in mu.college_counts.items():
        if cnt > m.college_quotas[c]:
            return False
    for r, cnt in mu.resource_counts.items():
        if r == EMPTY_RESOURCE:
            continue
        if cnt > m.resource_quota(r):
            return False
        for x in mu.resource_contracts(r):
            if x.college not in m.region(r):
                return False
    return True


def is_individually_rational(m: Market, mu: Matching) -> bool:
    """True iff every matched student finds her own contract acceptable."""
    _check_ids(m, mu)
    for x in mu.contracts:
        if not m.acceptable(x.student, x.college, x.resource):
            return False
    return True


def validate_market(m: Market) -> list[tuple[str, str]]:
    """Diagnose a market. Returns (severity, message) entries.

    Severity is "error" or "warning". The only warning-level condition is the
    presence convention for the empty resource: when a student lists (c, r)
    for some non-empty r, she is conventionally expected to list (c, r0)
    somewhere after it. Everything else (quotas below one, priority lists that
    are not permutations of the student set, out-of-range ids, duplicate
    preference entries, empty or invalid regions) is an error. An empty result
    means the market is clean.
    """
    out: list[tuple[str, str]] = []

    for c, q in enumerate(m.college_quotas):
        if q < 1:
            out.append(("error", f"college {c} has quota {q} (< 1)"))
    for i, q in enumerate(m.resource_quotas):
        if q < 1:
            out.append(("error", f"resource {i + 1} has quota {q} (< 1)"))

    for i, reg in enumerate(m.regions):
        if not reg:
            out.append(("error", f"resource {i + 1} has an empty region"))
        for c in reg:
            if not (0 <= c < m.n_colleges):
                out.append(
                    ("error", f"resource {i + 1} region names unknown college {c}")
                )

    for c in m._non_permutation_priorities:
        out.append(
            (
                "error",
                f"college {c} priority list is not a permutation of the "
                f"{m.n_students} students",
            )
        )

    for s, prefs in enumerate(m.preferences):
        seen: set[Pair] = set()
        for c, r in prefs:
            if not (0 <= c < m.n_colleges):
                out.append(("error", f"student {s} lists unknown college {c}"))
                continue
            if not (0 <= r <= m.n_resources):
                out.append(("error", f"student {s} lists unknown resource {r}"))
                continue
            if (c, r) in seen:
                out.append(("error", f"student {s} lists ({c},{r}) twice"))
            seen.add((c, r))
        # presence convention: (c, r) with r != 0 wants (c, 0) later in the list
        for pos, (c, r) in enumerate(prefs):
            if r == EMPTY_RESOURCE:
                continue
            if not (0 <= c < m.n_colleges) or not (0 <= r <= m.n_resources):
                continue
            tail_pos = m._pref_pos[s].get((c, EMPTY_RESOURCE))
            if tail_pos is None or tail_pos <= pos:
                out.append(
                    (
                        "warning",
                        f"student {s} lists ({c},{r}) without ({c},0) after it",
                    )
                )
                break  # one warning per student keeps the report readable

    return out


# -- serialization ---------------------------------------------------------


def market_to_dict(m: Market) -> dict:
    """Plain JSON-ready dict. Non-empty resource i+1 is resources[i]."""
    return {
        "students": m.n_students,
        "colleges": [{"quota": q} for q in m.college_quotas],
        "resources": [
            {"quota": q, "region": sorted(reg)}
            for q, reg in zip(m.resource_quotas, m.regions)
        ],
        "priorities": [list(p) for p in m.priorities],
        "preferences": [[[c, r] for (c, r) in prefs] for prefs in m.preferences],
    }


def market_from_dict(d: dict) -> Market:
    return Market(
        n_students=d["students"],
        college_quotas=[col["quota"] for col in d["colleges"]],
        resource_quotas=[res["quota"] for res in d["resources"]],
        regions=[res["region"] for res in d["resources"]],
        priorities=d["priorities"],
        preferences=[[(c, r) for (c, r) in prefs] for prefs in d["preferences"]],
    )


def dumps_market(m: Market) -> str:
    """Canonical JSON text: sorted keys, 2-space indent, trailing newline.

    Canonical means byte-stable: dumps(loads(text)) == text for anything this
    function produced, which the harness relies on for reproducibility diffs.
    """
    return json.dumps(market_to_dict(m), indent=2, sort_keys=True) + "\n"


def loads_market(text: str) -> Market:
    return market_from_dict(json.loads(text))


def save_market(m: Market, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_market(m))


def load_market(path) -> Market:
    with open(path) as fh:
        return loads_market(fh.read())


def matching_to_list(mu: Matching) -> list[list[int]]:
    """Sorted [[student, college, resource], ...] for JSON output."""
    return [[x.student, x.college, x.resource] for x in mu]


def matching_from_list(rows: Iterable[Sequence[int]]) -> Matching:
    return Matching(Contract(int(s), int(c), int(r)) for (s, c, r) in rows)
