"""Brute-force ground truth for small markets.

Everything here trades speed for certainty: exhaustive enumeration of
feasible individually rational matchings, full stability censuses, Pareto
checks against the whole matching set, and an exhaustive manipulation probe.
All entry points guard against combinatorial blowup with an explicit bound
and raise OracleBoundError instead of hanging.

One walk (_walk) finds every feasible IR matching and records it as a
position row: each student's list position in it, her list length when
she is unmatched. enumerate_matchings builds a Matching from each row; a
census keeps the rows, and its `matchings` builds every Matching on its
first read (_Matchings).

census audits all of a market's rows at once (_audit_rows); it is the
array audit's one caller. The market's list entries are fixed, and a
matching only decides which of them are candidates and the counts and
holders' ranks they are tested against, so each of audit's tests is one
array operation over the matchings-by-entries grid, in blocks of rows of
about _BLOCK_CELLS cells. It keeps only arrays: per-row counts and flags,
and every witness as a code. A census's `reports` builds every witness
and report in one pass on its first read (_Reports), and two censuses
compare their arrays. Both lazy sequences share one tuple-like base
(_LazyTuple). A lone audit keeps blocking's one-matching scan, whose
memory does not grow with the list lengths times n: the census covers
small markets, the scan the mechanisms' outputs at any size.
naive_audit decides every block from the definitions, by building each
changed matching and asking is_feasible; both audit paths are checked
against it.

The Pareto step is a skyline (the maxima of a set of vectors; Kung, Luccio
& Preparata, JACM 1975) over the same rows, read as vectors of
preference positions: a row is dominated when another row is
componentwise <= and has a strictly smaller sum. The test is bit-packed:
one table per column marks, for each value, the rows at or below it, and
a row's dominators are the AND of its tables' marks, taken over blocks of
rows so that memory stays bounded.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import chain, islice, permutations
from math import factorial, perm, prod
from operator import getitem
from typing import Callable, Optional, Union

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
    _check_ids,
    _require_known_pairs,
    fits,
    is_feasible,
    prefers,
)

DEFAULT_BOUND = 10_000_000
# matchings the walk may find, checked as it finds them: the leaf bound
# alone lets it hold millions of rows
_MAX_MATCHINGS = 1_000_000
# cells of one block of the domination test and of the array audit's
# per-row arrays: about 4M booleans per array
_BLOCK_CELLS = 1 << 22


class OracleBoundError(RuntimeError):
    """The requested exhaustive computation exceeds the stated bound."""


def _walk(m: Market, bound: int) -> tuple[tuple[tuple, ...], list[tuple[int, ...]]]:
    """The contract table of m and the position row of every feasible
    individually rational matching, in walk order.

    table[s] holds student s's contracts in list order, then None, so
    table[s][row[s]] is her contract in the row's matching, or None when
    she is unmatched. Row i holds each student's list position in matching
    i (the first listing of her pair), or her list length.

    Walks a per-student choice tree (each student takes one of her acceptable
    pairs or stays unmatched) and prunes branches as soon as a quota or
    region is violated; adding contracts never repairs a violation, so the
    pruning is exact.

    Raises:
        ValueError: some student lists an unknown college or resource.
        OracleBoundError: the unpruned choice tree exceeds `bound` leaves
            (checked before the walk), or the walk finds more than
            _MAX_MATCHINGS matchings (checked as it finds them, so the
            error comes before the rows outgrow memory).
    """
    _require_known_pairs(m)
    sizes = [len(m.preferences[s]) + 1 for s in range(m.n_students)]
    if prod(sizes) > bound:
        raise OracleBoundError(
            f"choice tree has about {prod(sizes):.3g} leaves, bound is {bound}"
        )

    n = m.n_students
    ccount = [0] * m.n_colleges
    rcount = [0] * (m.n_resources + 1)
    prefs = m.preferences
    # each acceptable pair with its first listing's position
    choices = [
        [(pos[c, r], c, r) for c, r in ps] for ps, pos in zip(prefs, m._pref_pos)
    ]
    row = [len(ps) for ps in prefs]
    out: list[tuple[int, ...]] = []
    limit = _MAX_MATCHINGS

    def walk(s: int) -> None:
        if s == n:
            out.append(tuple(row))
            if len(out) > limit:
                raise OracleBoundError(f"the walk found more than {limit} matchings")
            return
        walk(s + 1)  # unmatched branch first
        for j, c, r in choices[s]:
            if fits(m, ccount, rcount, c, r):
                ccount[c] += 1
                rcount[r] += 1
                row[s] = j
                walk(s + 1)
                ccount[c] -= 1
                rcount[r] -= 1
        row[s] = len(prefs[s])

    walk(0)
    return _contract_table(m), out


def _matching_of(table: tuple[tuple, ...], row: Sequence[int]) -> Matching:
    """The matching of one position row: its contracts come from the table
    in student order, one per student, so they need no sort and no check."""
    return Matching._of_sorted(tuple(filter(None, map(getitem, table, row))))


def enumerate_matchings(m: Market, bound: int = DEFAULT_BOUND) -> list[Matching]:
    """All feasible individually rational matchings of m, in the walk's
    order (see _walk). The result is duplicate-free when no student lists
    a pair twice.

    Raises:
        ValueError: some student lists an unknown college or resource.
        OracleBoundError: the unpruned choice tree exceeds `bound` leaves,
            or the walk finds more than _MAX_MATCHINGS matchings.
    """
    table, rows = _walk(m, bound)
    return [_matching_of(table, row) for row in rows]


class _LazyTuple(Sequence):
    """A tuple-like sequence over a contract table and arrays. The first
    read that needs an item builds every item in one pass (_build, in a
    subclass) and keeps them as a tuple; every read but len and == then
    answers as that tuple does, its errors included, and Sequence adds
    `in`, reversed and count on top of indexing and iterating. The first
    array holds one entry per item, so len builds nothing. Two sequences
    of one class with equal tables and equal arrays are equal without
    building any item; any other pair compares the items. A sequence
    pickles as its table and arrays.
    """

    __slots__ = ("_table", "_arrays", "_tuple")

    def __init__(self, table: tuple[tuple, ...], *arrays: np.ndarray):
        self._table = table
        self._arrays = arrays
        self._tuple: Optional[tuple] = None

    def _build(self) -> list:
        raise NotImplementedError

    def _items(self) -> tuple:
        if self._tuple is None:
            self._tuple = tuple(self._build())
        return self._tuple

    def __len__(self) -> int:
        return len(self._arrays[0])

    def __getitem__(self, i):
        return self._items()[i]

    def __iter__(self):
        return iter(self._items())

    def index(self, x, *bounds) -> int:
        return self._items().index(x, *bounds)

    def __eq__(self, other):
        if isinstance(other, _LazyTuple):
            if (
                type(self) is type(other)
                and self._table == other._table
                and all(map(np.array_equal, self._arrays, other._arrays))
            ):
                return True
        elif not isinstance(other, tuple):
            return NotImplemented
        return self._items() == tuple(other)

    def __hash__(self) -> int:
        return hash(self._items())

    def __repr__(self) -> str:
        return repr(self._items())

    def __reduce__(self):
        return type(self), (self._table, *self._arrays)


class _Matchings(_LazyTuple):
    """A census's matchings, built from the walk's position rows (see
    _walk): _Matchings(table, rows)."""

    __slots__ = ()

    def _build(self) -> list[Matching]:
        table = self._table
        return [_matching_of(table, row) for row in self._arrays[0].tolist()]


class _Reports(_LazyTuple):
    """A census's reports, built from the array audit's arrays (see
    _audit_rows): the six per-row columns n_waste, n_resource, n_envy,
    n_direct, weakly and des, the waste codes 2 * entry + (kind is
    resource), the coded envy rows (entry, victim codes...) with a victim
    coded as her entry + 1 and a non-victim as 0, and their direct bits.
    The codes run in row-major order, so each row's witnesses follow the
    previous row's.

    The build makes every witness first: one shared tuple per (entry,
    kind), and one per distinct coded envy row. Each report is then
    _make_report of its row's witnesses and columns, as audit builds it.
    """

    __slots__ = ()

    def _build(self) -> list[BlockingReport]:
        *columns, waste_codes, coded, direct = self._arrays
        xs = [x for contracts in self._table for x in contracts[:-1]]
        waste_of = [w for x in xs for w in ((x, SEAT), (x, RESOURCE))]
        first, group = _distinct_rows(coded, len(xs))
        witnesses = [
            (xs[x_e], tuple(xs[code - 1] for code in codes if code), d)
            for (x_e, *codes), d in zip(coded[first].tolist(), direct[first].tolist())
        ]
        waste = map(waste_of.__getitem__, waste_codes.tolist())
        envy = map(witnesses.__getitem__, group.tolist())
        return [
            _make_report(
                tuple(islice(waste, n_w)),
                tuple(islice(envy, n_env)),
                n_res,
                n_dir,
                weakly_stable,
                direct_envy_stable,
            )
            for n_w, n_res, n_env, n_dir, weakly_stable, direct_envy_stable in zip(
                *(a.tolist() for a in columns)
            )
        ]


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

    The row sums are one more column, asked at sum(q) - 1, so q's
    dominators are exactly the rows of P at or below q in every column; a
    repeat of q never is one. One table of bits packed over the rows of P
    holds, for each column k and each level v from min(P[:, k]) - 1 to
    max(P[:, k]), the rows p with p[k] <= v. A row q gathers its level's
    bits in every column, and q is dominated when their AND keeps a bit.
    The columns are list positions and their sums, so their ranges are
    short; the table and the gathered bits go in blocks of about
    _BLOCK_CELLS cells.
    """
    out = np.zeros(len(Q), dtype=bool)
    if len(P) == 0:
        return out
    P = np.column_stack((P, P.sum(axis=1)))
    Q = np.column_stack((Q, Q.sum(axis=1) - 1))
    low = P.min(axis=0) - 1
    size = P.max(axis=0) - low + 1
    base = np.cumsum(size) - size
    col = np.repeat(np.arange(P.shape[1]), size)
    level = low[col] + np.arange(len(col)) - base[col]
    table = np.empty((len(col), (len(P) + 7) // 8), np.uint8)
    step = max(1, _BLOCK_CELLS // len(P))
    for lo in range(0, len(col), step):
        at = slice(lo, lo + step)
        table[at] = np.packbits(P[:, col[at]].T <= level[at, None], axis=1)
    pick = (base + np.clip(Q - low, 0, size - 1)).T
    step = max(1, _BLOCK_CELLS // (len(pick) * table.shape[1]))
    for lo in range(0, len(Q), step):
        hit = np.bitwise_and.reduce(table[pick[:, lo : lo + step]])
        out[lo : lo + step] = hit.any(axis=1)
    return out


def _entries(m: Market) -> tuple[np.ndarray, ...]:
    """The candidate table of m, one entry per list entry in student order,
    then list order: the list lengths, each list's first entry, and each
    entry's student s_e, list position j_e, college c_e and resource r_e."""
    prefs = m.preferences
    lengths = np.array([len(p) for p in prefs], np.int64)
    offsets = np.cumsum(lengths) - lengths
    s_e = np.repeat(np.arange(m.n_students), lengths)
    j_e = np.arange(len(s_e)) - offsets[s_e]
    c_e, r_e = _flat_ints(chain.from_iterable(prefs), 2 * len(s_e)).reshape(-1, 2).T
    return lengths, offsets, s_e, j_e, c_e, r_e


def _contract_table(m: Market) -> tuple[tuple, ...]:
    """Each student's contracts in list order, then None (see _walk)."""
    return tuple(
        (*(_tuple_new(Contract, (s, c, r)) for c, r in ps), None)
        for s, ps in enumerate(m.preferences)
    )


def _region_table(m: Market) -> np.ndarray:
    """C x (R + 1) booleans: may college c hand out resource r?"""
    n_c = m.n_colleges
    region = np.zeros((n_c, m.n_resources + 1), bool)
    region[:, EMPTY_RESOURCE] = True
    for r, reg in enumerate(m.regions, 1):
        region[[c for c in reg if 0 <= c < n_c], r] = True
    return region


def _audit_rows(
    m: Market, table: tuple[tuple, ...], P: np.ndarray
) -> tuple[_Reports, tuple[np.ndarray, ...]]:
    """The audit of each matching of the position rows P, in order, as a
    _Reports that builds every report on its first read, and five boolean
    arrays over the rows: stable, envy_free, non_wasteful, weakly_stable
    and direct_envy_stable, the census's flag sets.

    table is m's contract table (see _walk). Each row holds first
    listings, as the walk's rows and _position_matrix's do.

    For one market the candidates are fixed: entry e of the candidate table
    is student s_e's pair (c_e, r_e) at list position j_e. A matching only
    decides which entries are candidates (those above her assignment) and
    the counts they are tested against, so each of audit's tests is one
    array operation over the M x L (matchings x entries) grid. Whether e
    has a victim depends only on the worst rank at c_e among its holders,
    and among its holders of r_e (see blocking._scan), so the victims
    themselves are listed only for the envy blocks, to name the witnesses.
    Rows go in blocks of about _BLOCK_CELLS cells. Only arrays are kept:
    the per-row counts and flags, and the witnesses as codes in row-major
    order, which is the scan's student-then-list order, so every report
    equals audit(m, mu).

    Raises audit's ValueError if some row breaks a quota or a region. The
    walk's rows never do; the check keeps a bad row from being audited as
    a matching.
    """
    n, n_c, n_r = m.n_students, m.n_colleges, m.n_resources + 1
    n_m = len(P)
    lengths, offsets, s_e, j_e, c_e, r_e = _entries(m)
    n_e = len(s_e)

    # rank[c, s] = c's 1-based rank of s, or -1 when c does not rank her;
    # the last row, all -1, stands for no college
    rank = np.array(
        [[-1 if v is None else v for v in row] for row in (*m._rank, [None] * n)],
        np.int64,
    ).reshape(n_c + 1, n)
    rank_e = rank[c_e, s_e]
    ranked_e = rank_e > 0
    # below[e, t]: c_e ranks s_e above student t, who is ranked too
    below = ranked_e[:, None] & (rank[c_e] > rank_e[:, None])
    # dominates[f, e]: a clean f at the same (c, r) dominates waste block e,
    # as float32 so that the product below runs in BLAS
    dominates = (
        (c_e[:, None] == c_e)
        & (r_e[:, None] == r_e)
        & ranked_e[:, None]
        & ranked_e
        & (rank_e[:, None] < rank_e)
    ).astype(np.float32)
    cq = np.array(m.college_quotas, np.int64)
    # the empty resource never fills: n + 1 units is more than n students hold
    rq = np.array((n + 1, *m.resource_quotas), np.int64)
    cq_e, rq_e = cq[c_e], rq[r_e]
    region = _region_table(m)
    region_e = region[c_e, r_e]
    empty_e = r_e == EMPTY_RESOURCE
    n_pairs = n_c * n_r
    pair_e = c_e * n_r + r_e

    # each student's entry in each row (n_e when she is unmatched), the
    # college and resource it names (-1 when unmatched), her pair's key
    # (n_pairs when unmatched) and her rank at her college (-1 when
    # unmatched or unranked)
    matched = P < lengths
    ent = np.where(matched, offsets + P, n_e)
    col = np.append(c_e, -1)[ent]
    res = np.append(r_e, -1)[ent]
    pair = np.append(pair_e, n_pairs)[ent]
    held = rank[col, np.arange(n)]
    row = np.nonzero(matched)[0]
    c_m, r_m = col[matched], res[matched]
    ccount = np.bincount(row * n_c + c_m, minlength=n_m * n_c).reshape(n_m, n_c)
    rcount = np.bincount(row * n_r + r_m, minlength=n_m * n_r).reshape(n_m, n_r)
    if (ccount > cq).any() or (rcount > rq).any() or not region[c_m, r_m].all():
        raise ValueError("matching is not feasible")

    per_row: list[list[np.ndarray]] = [[] for _ in range(6)]
    waste_codes = []
    coded_rows = [np.zeros((0, n + 1), np.int64)]
    direct_bits = [np.zeros(0, bool)]
    step = max(1, _BLOCK_CELLS // max(1, n_e * n, n_pairs))
    for lo in range(0, n_m, step):
        rows = slice(lo, lo + step)
        col_b, res_b = col[rows], res[rows]
        active = P[rows][:, s_e] > j_e
        at_c = col_b[:, s_e] == c_e
        had_r = res_b[:, s_e] == r_e
        # holders of c_e and of r_e once s_e leaves
        left_c = ccount[rows][:, c_e] - at_c
        left_r = rcount[rows][:, r_e] - had_r
        unit = region_e & (left_r < rq_e)
        waste = active & unit & (left_c < cq_e)
        # a swap frees the victim's seat too, and her unit if she holds r_e
        swap = left_c <= cq_e
        swap_any = swap & unit
        swap_r = swap & region_e & (left_r <= rq_e)
        # the worst rank among each pair's holders (the last column for the
        # unmatched), and among each college's
        b = len(active)
        worst = np.full((b, n_pairs + 1), -1)
        np.maximum.at(worst, (np.arange(b)[:, None], pair[rows]), held[rows])
        worst_c = worst[:, :n_pairs].reshape(b, n_c, n_r).max(2)
        # some holder of c_e, or of (c_e, r_e), ranks below s_e
        below_c = ranked_e & (worst_c[:, c_e] > rank_e)
        below_r = ranked_e & (worst[:, pair_e] > rank_e)
        envy = active & ((swap_any & below_c) | (swap_r & below_r))
        direct = envy & (empty_e | (swap_r & below_r))
        clean = active & ranked_e & ~waste & ~direct
        no_direct = ~direct.any(1)
        full = ~empty_e & (rcount[rows][:, r_e] == rq_e)
        weakly = no_direct & ~(waste & ~full).any(1)
        des = no_direct & ~(waste & ((clean @ dominates) == 0)).any(1)
        n_resource = (waste & at_c).sum(1)
        for out, a in zip(
            per_row, (waste.sum(1), n_resource, envy.sum(1), direct.sum(1), weakly, des)
        ):
            out.append(a)

        wi, we = np.nonzero(waste)
        waste_codes.append(2 * we + at_c[wi, we])
        # a victim is coded as her entry + 1, a non-victim as 0
        ei, ee = np.nonzero(envy)
        if not len(ei):
            continue
        holds_r = res_b[ei] == r_e[ee, None]
        victims = (
            (col_b[ei] == c_e[ee, None])
            & below[ee]
            & (swap_any[ei, ee, None] | (swap_r[ei, ee, None] & holds_r))
        )
        coded_rows.append(
            np.column_stack((ee, np.where(victims, ent[rows][ei] + 1, 0)))
        )
        direct_bits.append(direct[ei, ee])

    columns = [np.concatenate(a) for a in per_row]
    reports = _Reports(
        table,
        *columns,
        *map(np.concatenate, (waste_codes, coded_rows, direct_bits)),
    )
    n_waste, _n_resource, n_envy, _n_direct, weakly, des = columns
    no_waste, no_envy = n_waste == 0, n_envy == 0
    return reports, (no_waste & no_envy, no_envy, no_waste, weakly, des)


def _row_matrix(m: Market, rows: list[tuple[int, ...]]) -> np.ndarray:
    """The walk's rows as an M x n array. The shape is given, not inferred:
    a market with no student has one empty row."""
    return _flat_ints(rows, len(rows) * m.n_students).reshape(len(rows), m.n_students)


def _flat_ints(items, count: int) -> np.ndarray:
    """The count ints of the int tuples items, in order, as one array."""
    return np.fromiter(chain.from_iterable(items), np.int64, count)


def _distinct_rows(a: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """The index of one row of each distinct row of a, whose values lie in
    0..top, and for each row of a the position of its distinct row in the
    first array.

    The rows are sorted on keys that pack as many columns each as fit in
    63 bits, so no key overflows."""
    bits = max(1, top.bit_length())
    per = 63 // bits
    keys = []
    for lo in range(0, a.shape[1], per):
        part = a[:, lo : lo + per]
        # disjoint bit fields, so the sum is their OR
        keys.append((part << bits * np.arange(part.shape[1] - 1, -1, -1)).sum(1))
    order = np.lexsort(keys[::-1])
    keys = np.array(keys)[:, order]
    new = np.ones(len(a), bool)
    new[1:] = (keys[:, 1:] != keys[:, :-1]).any(0)
    group = np.empty_like(order)
    group[order] = np.cumsum(new) - 1
    return order[new], group


def is_pareto_efficient(
    m: Market, mu: Matching, bound: int = DEFAULT_BOUND
) -> bool:
    """No feasible matching makes someone better off and nobody worse off.

    A dominating matching weakly improves every student over an individually
    rational one, so it is itself individually rational; searching the
    walk's rows therefore loses nothing.

    Raises:
        ValueError: some student lists an unknown pair, or mu names an
            unknown id.
        OracleBoundError: as _walk.
    """
    _require_known_pairs(m)
    _check_ids(m, mu)
    P = _row_matrix(m, _walk(m, bound)[1])
    return not _dominated_rows(P, _position_matrix(m, [mu]))[0]


@dataclass(frozen=True)
class StabilityCensus:
    """Audit of every feasible IR matching of one market.

    The sets hold indices into `matchings`. `matchings` and `reports` are
    tuple-like sequences that build all their Matchings or BlockingReports
    in one pass on the first read that needs an item, and then answer as
    the tuples of their items; isinstance(..., tuple) holds for neither.
    len builds nothing, and two censuses compare their walks' rows and
    their array audits' arrays, without building an item.
    The census only reports what the audits found; it deliberately
    enforces no inclusion between the sets.
    """

    matchings: Sequence[Matching]
    reports: Sequence[BlockingReport]
    stable: tuple[int, ...]
    envy_free: tuple[int, ...]
    non_wasteful: tuple[int, ...]
    weakly_stable: tuple[int, ...]
    direct_envy_stable: tuple[int, ...]
    pareto_efficient: tuple[int, ...]

    def set_of(self, name: str) -> list[Matching]:
        """The matchings in one of CENSUS_SETS; AttributeError for any other
        name. On a fresh census this builds every matching."""
        if name not in CENSUS_SETS:
            raise AttributeError(f"a census has no set {name!r}")
        return [self.matchings[i] for i in getattr(self, name)]


# the census's index sets, as `capmatch oracle` prints them: the fields after reports
CENSUS_SETS = tuple(f.name for f in fields(StabilityCensus))[2:]


def census(m: Market, bound: int = DEFAULT_BOUND) -> StabilityCensus:
    """Enumerate, audit, and classify every feasible IR matching."""
    table, rows = _walk(m, bound)
    P = _row_matrix(m, rows)
    reports, flags = _audit_rows(m, table, P)
    # every set but the last, the Pareto skyline, is a report flag
    sets = (
        tuple(np.flatnonzero(a).tolist()) for a in (*flags, ~_dominated_rows(P, P))
    )
    return StabilityCensus(_Matchings(table, P), reports, *sets)


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
        ValueError: student is not one of the market's ids, or mechanism
            names no mechanism.
        OracleBoundError: misreports x orders would exceed `bound` runs.
    """
    if not (0 <= student < m.n_students):
        raise ValueError(f"unknown student id {student}")
    true_pairs = m.preferences[student]
    n_reports = sum(perm(len(true_pairs), k) for k in range(len(true_pairs) + 1))

    from .mechanisms import MECHANISMS, run_rsd

    if isinstance(mechanism, str) and mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
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
