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
from bisect import bisect_left
from itertools import chain, compress, repeat
from operator import le, lt
from typing import Iterable, NamedTuple, Optional, Sequence

EMPTY_RESOURCE = 0


class Contract(NamedTuple):
    """One (student, college, resource) triple. resource 0 means seat only."""

    student: int
    college: int
    resource: int


Pair = tuple[int, int]  # (college, resource) as seen from a student's list


def _first_positions(items: Sequence, start: int) -> dict:
    """{item: position} counting from start, the first occurrence winning.

    Built in C over the reversed sequence, so an earlier occurrence
    overwrites a later one.
    """
    n = len(items)
    return dict(zip(reversed(items), range(n - 1 + start, start - 1, -1)))


def _distinct_pairs(prefs: Sequence[tuple]) -> Optional[set]:
    """The set of distinct pairs in prefs if every pair is a tuple of two
    plain ints, else None.

    Each check runs in C: an unhashable pair (a list) fails the union, the
    distinct pairs are few enough to inspect one by one, and the sum of all
    ids stays an int only when no id is a numpy integer or a float, which
    also catches one hidden behind an equal plain pair.
    """
    try:
        pairs = set().union(*prefs)
        total = sum(chain.from_iterable(chain.from_iterable(prefs)))
    except (TypeError, OverflowError):
        return None
    if type(total) is not int:
        return None
    for p in pairs:
        if type(p) is not tuple or len(p) != 2:
            return None
        if type(p[0]) is not int or type(p[1]) is not int:
            return None
    return pairs


def _require_id(kind: str, i: int, stop: int, start: int = 0) -> None:
    """Refuse an id outside start..stop-1: a negative one would read a list
    from its end."""
    if not (start <= i < stop):
        raise ValueError(f"unknown {kind} id {i}")


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
        self.college_quotas = tuple(map(int, college_quotas))
        self.n_colleges = len(self.college_quotas)
        self.resource_quotas = tuple(map(int, resource_quotas))
        self.n_resources = len(self.resource_quotas)  # non-empty only
        self.regions = tuple(frozenset(map(int, reg)) for reg in regions)
        self.priorities = tuple(tuple(map(int, p)) for p in priorities)
        # the caller's pairs are kept when they are tuples of two plain ints
        # (generate_market hands over one shared tuple per (c, r)); anything
        # else (numpy ints, lists from JSON) is rebuilt as (int(c), int(r))
        prefs = tuple(map(tuple, preferences))
        pairs = _distinct_pairs(prefs)
        if pairs is None:
            prefs = tuple(tuple((int(c), int(r)) for (c, r) in p) for p in prefs)
            pairs = set().union(*prefs)
        self.preferences = prefs
        # every distinct (c, r) some student lists, and those naming an
        # unknown college or resource: validate_market and the entry points
        # that refuse such a market read them instead of walking every pair
        self._pairs = frozenset(pairs)
        self._unknown_pairs = frozenset(
            p
            for p in pairs
            if not (0 <= p[0] < self.n_colleges and 0 <= p[1] <= self.n_resources)
        )

        # rank lookup: _rank[c][s] = 1-based position of s in c's list, or None.
        # Permissive: duplicate entries keep the first position, missing
        # students stay None; validate_market reports both.
        self._rank: list[list[Optional[int]]] = [
            list(map(_first_positions(plist, 1).get, range(self.n_students)))
            for plist in self.priorities
        ]
        # colleges whose list is not a permutation of the students: a list of
        # length n that ranks every student holds each exactly once
        self._non_permutation_priorities = tuple(
            c
            for c, (plist, row) in enumerate(zip(self.priorities, self._rank))
            if len(plist) != self.n_students or None in row
        )

        # _pref_pos[s][(c, r)] = 0-based position, first occurrence wins.
        self._pref_pos: list[dict[Pair, int]] = [
            _first_positions(p, 0) for p in self.preferences
        ]

    # -- basic lookups -----------------------------------------------------

    def resource_quota(self, r: int) -> int:
        """Quota of non-empty resource r (r >= 1)."""
        _require_id("non-empty resource", r, self.n_resources + 1, 1)
        return self.resource_quotas[r - 1]

    def region(self, r: int) -> frozenset[int]:
        """Region of non-empty resource r (r >= 1)."""
        _require_id("non-empty resource", r, self.n_resources + 1, 1)
        return self.regions[r - 1]

    def in_region(self, c: int, r: int) -> bool:
        """True iff college c may distribute resource r (always for r = 0)."""
        _require_id("college", c, self.n_colleges)
        _require_id("resource", r, self.n_resources + 1)
        return r == EMPTY_RESOURCE or c in self.regions[r - 1]

    def acceptable(self, s: int, c: int, r: int) -> bool:
        """True iff (c, r) appears in student s's preference list."""
        if not (0 <= s < self.n_students):  # inline: the audit's hot path
            raise ValueError(f"unknown student id {s}")
        return (c, r) in self._pref_pos[s]

    def pref_position(self, s: int, pair: Optional[Pair]) -> int:
        """Totalized position of a pair in s's list.

        Listed pairs get their 0-based index, None (unmatched) gets the list
        length, unlisted pairs get length + 1. Smaller is better, so this
        makes "unmatched" strictly better than any unacceptable contract.
        """
        if not (0 <= s < self.n_students):  # inline: the audit's hot path
            raise ValueError(f"unknown student id {s}")
        if pair is None:
            return len(self.preferences[s])
        pos = self._pref_pos[s].get(pair)
        if pos is not None:
            return pos
        return len(self.preferences[s]) + 1

    def with_student_preferences(self, s: int, pairs: Sequence[Pair]) -> "Market":
        """Copy of the market with student s's list replaced (for probes)."""
        _require_id("student", s, self.n_students)
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
        ValueError: c or s is unknown, or s does not appear in c's list.
    """
    _require_id("college", c, m.n_colleges)
    _require_id("student", s, m.n_students)
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

    The contracts are held once, as a tuple sorted by student: equality,
    hashing, iteration, len() and `in` read it, student_contract bisects
    it, and contracts copies it into a frozenset. is_feasible and the
    audit count colleges and resources in one pass over it."""

    __slots__ = ("_items",)

    def __init__(self, contracts: Iterable[Contract] = ()):
        items = tuple(
            sorted([x if type(x) is Contract else Contract(*x) for x in contracts])
        )
        for a, b in zip(items, items[1:]):
            if a.student == b.student:  # sorted: the lowest such student
                raise ValueError(f"student {a.student} holds two contracts")
        self._items = items

    @property
    def contracts(self) -> frozenset[Contract]:
        return frozenset(self._items)

    def student_contract(self, s: int) -> Optional[Contract]:
        i = bisect_left(self._items, (s,))  # (s,) sorts just before (s, c, r)
        if i < len(self._items) and self._items[i].student == s:
            return self._items[i]
        return None

    def __contains__(self, x) -> bool:
        return x in self._items

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __eq__(self, other):
        if not isinstance(other, Matching):
            return NotImplemented
        return self._items == other._items

    def __hash__(self):
        return hash(self._items)

    def __repr__(self):
        inner = ", ".join(f"({x.student},{x.college},{x.resource})" for x in self)
        return "Matching{" + inner + "}"


def _check_ids(m: Market, mu: Matching) -> None:
    for s, c, r in mu:
        if not (0 <= s < m.n_students):
            raise ValueError(f"unknown student id {s}")
        if not (0 <= c < m.n_colleges):
            raise ValueError(f"unknown college id {c}")
        if not (0 <= r <= m.n_resources):
            raise ValueError(f"unknown resource id {r}")


def _require_known_pairs(m: Market) -> None:
    """Refuse a market in which some student lists an unknown college or
    resource: counts indexed by such an id would read a negative one from
    the end and fail on a large one. Names the first such pair."""
    if m._unknown_pairs:
        s, (c, r) = next(
            (s, p)
            for s, prefs in enumerate(m.preferences)
            for p in prefs
            if p in m._unknown_pairs
        )
        raise ValueError(f"student {s} lists unknown pair ({c},{r})")


def is_feasible(m: Market, mu: Matching) -> bool:
    """Feasibility of a matching: quotas and regions respected.

    College c holds at most quota(c) contracts; each non-empty resource r
    appears at most quota(r) times and only at colleges inside its region.
    The empty resource is never constrained. Acceptability plays no role here.
    """
    _check_ids(m, mu)  # a negative id would index the counts from the end
    ccount = [0] * m.n_colleges
    rcount = [0] * (m.n_resources + 1)
    for _s, c, r in mu:
        if r != EMPTY_RESOURCE and c not in m.regions[r - 1]:
            return False
        ccount[c] += 1
        rcount[r] += 1
    return all(map(le, ccount, m.college_quotas)) and all(
        map(le, rcount[1:], m.resource_quotas)
    )


def fits(
    m: Market,
    ccount: Sequence[int],
    rcount: Sequence[int],
    c: int,
    r: int,
    c_out: int = 0,
    r_out: int = 0,
) -> bool:
    """Whether one more contract at (c, r) keeps college c and resource r
    within quota, and r inside its region, once c_out contracts leave c and
    r_out leave r.

    ccount[c] and rcount[r] count the contracts at college c and with
    resource r (rcount is indexed by resource id, the empty one included).
    The empty resource is never constrained.
    """
    if ccount[c] - c_out >= m.college_quotas[c]:
        return False
    if r == EMPTY_RESOURCE:
        return True
    return c in m.regions[r - 1] and rcount[r] - r_out < m.resource_quotas[r - 1]


def is_individually_rational(m: Market, mu: Matching) -> bool:
    """True iff every matched student finds her own contract acceptable."""
    _check_ids(m, mu)
    for x in mu:
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

    unknown = m._unknown_pairs
    # the empty-resource pair of each listed pair's college
    empty_of = {p: (p[0], EMPTY_RESOURCE) for p in m._pairs}
    for s, (prefs, pos_map) in enumerate(zip(m.preferences, m._pref_pos)):
        if len(pos_map) < len(prefs) or (unknown and not unknown.isdisjoint(pos_map)):
            out.extend(_student_diagnostics(m, s))
            continue
        # No duplicate and no unknown id: each pair sits at its own position,
        # so the pair at position i breaks the presence convention iff its
        # (c, 0) is missing (-1) or sits before i; (c, 0) itself sits at i.
        tails = map(pos_map.get, map(empty_of.__getitem__, prefs), repeat(-1))
        positions = range(len(prefs))
        pos = next(compress(positions, map(lt, tails, positions)), None)
        if pos is not None:
            c, r = prefs[pos]
            out.append(_presence_warning(s, c, r))

    return out


def _student_diagnostics(m: Market, s: int) -> list[tuple[str, str]]:
    """validate_market's entries for student s, pair by pair: unknown ids
    and repeated pairs in list order, then at most one presence warning."""
    out: list[tuple[str, str]] = []
    prefs = m.preferences[s]
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
            out.append(_presence_warning(s, c, r))
            break  # one warning per student keeps the report readable
    return out


def _presence_warning(s: int, c: int, r: int) -> tuple[str, str]:
    return ("warning", f"student {s} lists ({c},{r}) without ({c},0) after it")


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
    """Read market_to_dict's layout back.

    Raises:
        ValueError: d is not that layout, or its lists do not fit together;
            the message names the first bad key.
    """
    keys = ("colleges", "preferences", "priorities", "resources", "students")
    _require_keys("market", d, keys)
    _require_int("market key 'students'", d["students"])
    for key in ("colleges", "resources", "priorities", "preferences"):
        if not isinstance(d[key], list):
            raise ValueError(f"market key {key!r} must be a list")
    for i, col in enumerate(d["colleges"]):
        where = f"market key 'colleges' entry {i}"
        _require_keys(where, col, ("quota",))
        _require_int(f"{where} key 'quota'", col["quota"])
    for i, res in enumerate(d["resources"]):
        where = f"market key 'resources' entry {i}"
        _require_keys(where, res, ("quota", "region"))
        _require_int(f"{where} key 'quota'", res["quota"])
        _require_ints(f"{where} key 'region'", res["region"])
    for c, plist in enumerate(d["priorities"]):
        _require_ints(f"market key 'priorities' entry {c}", plist)
    for s, prefs in enumerate(d["preferences"]):
        if not isinstance(prefs, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(type(x) is int for x in p)
            for p in prefs
        ):
            raise ValueError(
                f"market key 'preferences' entry {s} must be a list of "
                "[college, resource] pairs of integers"
            )
    return Market(
        n_students=d["students"],
        college_quotas=[col["quota"] for col in d["colleges"]],
        resource_quotas=[res["quota"] for res in d["resources"]],
        regions=[res["region"] for res in d["resources"]],
        priorities=d["priorities"],
        preferences=[[(c, r) for (c, r) in prefs] for prefs in d["preferences"]],
    )


def _require_keys(where: str, d, keys) -> None:
    """Raise ValueError unless d is an object with exactly the given keys."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be an object")
    for key in keys:
        if key not in d:
            raise ValueError(f"{where} lacks key {key!r}")
    for key in d:
        if key not in keys:
            raise ValueError(f"{where} has unknown key {key!r}")


def _require_int(where: str, value) -> None:
    if type(value) is not int:
        raise ValueError(f"{where} must be an integer, not {type(value).__name__}")


def _require_ints(where: str, values) -> None:
    if not isinstance(values, list) or any(type(v) is not int for v in values):
        raise ValueError(f"{where} must be a list of integers")


def dumps_market(m: Market) -> str:
    """Canonical JSON text: sorted keys, 2-space indent, trailing newline.

    Canonical means byte-stable: dumps(loads(text)) == text for anything this
    function produced, which the harness relies on for reproducibility diffs.
    The text is json.dumps(market_to_dict(m), indent=2, sort_keys=True)
    plus a newline, written directly: each distinct pair is rendered once.
    """
    pair_text = {
        p: f"[\n        {p[0]},\n        {p[1]}\n      ]" for p in m._pairs
    }
    colleges = [f'{{\n      "quota": {q}\n    }}' for q in m.college_quotas]
    resources = [
        f'{{\n      "quota": {q},\n      "region": '
        f"{_json_array(map(str, sorted(reg)), 3)}\n    }}"
        for q, reg in zip(m.resource_quotas, m.regions)
    ]
    priorities = [_json_array(map(str, p), 2) for p in m.priorities]
    preferences = [
        _json_array(map(pair_text.__getitem__, prefs), 2) for prefs in m.preferences
    ]
    return (
        f'{{\n  "colleges": {_json_array(colleges, 1)},'
        f'\n  "preferences": {_json_array(preferences, 1)},'
        f'\n  "priorities": {_json_array(priorities, 1)},'
        f'\n  "resources": {_json_array(resources, 1)},'
        f'\n  "students": {m.n_students}\n}}\n'
    )


def _json_array(items: Iterable[str], depth: int) -> str:
    """A JSON array of rendered items at nesting depth, laid out as
    json.dumps(indent=2) lays it out: one item a line, [] when empty."""
    inner = "\n" + "  " * (depth + 1)
    body = ("," + inner).join(items)
    if not body:
        return "[]"
    return "[" + inner + body + "\n" + "  " * depth + "]"


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
