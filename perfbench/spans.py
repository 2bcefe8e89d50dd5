"""In-memory spans around the public functions each layer exposes.

`traced(tracer)` swaps wrapped copies of those functions into the module
attributes the program and the benchmark look them up through, and puts the
originals back on exit; the program's files stay untouched. A span records
its name, start, end and parent (the span open when it started). A layer's
self time is its spans' duration minus the time their child spans cover.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

from capmatch import experiments as ex
from capmatch import generate as gen
from capmatch import oracle
from capmatch.mechanisms import MECHANISM_ORDER, MECHANISMS

# span name -> per-layer metric reporting its self time
LAYER_TIMES = {
    "generate": "generate.s",
    "market.build": "market.build.s",
    "market.validate": "market.validate.s",
    **{f"mechanisms.{m}": f"mechanisms.{m}.s" for m in MECHANISM_ORDER},
    "blocking.audit": "blocking.audit.s",
    "oracle.enumerate": "oracle.enumerate.s",
    "oracle.census": "oracle.census_self.s",
    "experiments.run": "experiments.self.s",
    "experiments.serialize": "experiments.serialize.s",
}
COUNTS = (
    *(f"mechanisms.{m}.moves" for m in MECHANISM_ORDER),
    "blocking.audit.calls",
    "blocking.waste_blocks",
    "oracle.matchings",
)


class Tracer:
    """Spans as [name, start, end, parent index], plus exact counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._open: list[int] = []

    def wrap(self, name, fn, count=None):
        def traced_call(*args, **kwargs):
            span = [name, perf_counter(), None, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._open.pop()
            if count:
                count(self.counts, out)
            return out

        return traced_call

    def self_times(self) -> dict:
        """Seconds of self time per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + (end - start - child)
        return out


def wrapper_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds a traced call costs more than a plain one: the fastest of
    `repeats` timings of `calls` calls of a wrapped identity function, less
    the fastest of the same calls unwrapped."""

    def identity(x):
        return x

    def fastest(fn):
        best = float("inf")
        for _ in range(repeats):
            t = perf_counter()
            for i in range(calls):
                fn(i)
            best = min(best, perf_counter() - t)
        return best

    wrapped = Tracer().wrap("identity", identity)
    return (fastest(wrapped) - fastest(identity)) / calls


def _count_moves(mech):
    def count(counts, trace):
        counts[f"mechanisms.{mech}.moves"] += len(trace.moves)

    return count


def _count_audit(counts, report):
    counts["blocking.audit.calls"] += 1
    counts["blocking.waste_blocks"] += report.counts["seat"] + report.counts["resource"]


def _count_matchings(counts, matchings):
    counts["oracle.matchings"] += len(matchings)


@contextmanager
def traced(tracer: Tracer):
    """Route every layer's public entry points through tracer while open."""
    patches = [
        (ex, "generate_market", "generate", None),
        (gen, "Market", "market.build", None),
        (ex, "validate_market", "market.validate", None),
        (ex, "audit", "blocking.audit", _count_audit),
        (oracle, "audit", "blocking.audit", _count_audit),
        (oracle, "enumerate_matchings", "oracle.enumerate", _count_matchings),
        (oracle, "census", "oracle.census", None),
        (ex, "run_experiment", "experiments.run", None),
        *((ex, f, "experiments.serialize", None)
          for f in ("results_to_json", "aggregate", "table_csv", "table_text")),
        *((MECHANISMS, m, f"mechanisms.{m}", _count_moves(m)) for m in MECHANISM_ORDER),
    ]
    saved = []
    try:
        for owner, attr, name, count in patches:
            is_dict = isinstance(owner, dict)
            fn = owner[attr] if is_dict else getattr(owner, attr)
            saved.append((owner, attr, fn, is_dict))
            wrapped = tracer.wrap(name, fn, count)
            if is_dict:
                owner[attr] = wrapped
            else:
                setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, fn, is_dict in reversed(saved):
            if is_dict:
                owner[attr] = fn
            else:
                setattr(owner, attr, fn)
