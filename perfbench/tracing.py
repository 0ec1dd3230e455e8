"""In-memory span tracing from outside the program, and its arithmetic.

The benchmark attributes wall time to the library's layers without touching
``src/``: :func:`instrument` replaces, for the duration of a ``with`` block,
the names the library resolves at call time (``repro.moo.nsga2``'s imported
operators, ``ParetoArchive.add_population``, ``Population.evaluate``, ...)
with wrappers that open a span on the :class:`Tracer`.  Spans live in memory
with parent ids; :func:`self_times` and :func:`layer_table` turn them into
per-layer self time, and :func:`write_spans` dumps them at the end of a run.

Self time of a span is its duration minus the part of its interval covered
by its direct children, so the self times of all spans under a set of roots
add up to the roots' total duration.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterable, NamedTuple

#: Layer names, in report order.  ``trace`` holds the tracer's own
#: bookkeeping (the archive freshness scan), kept out of the real layers.
LAYERS = (
    "solve",
    "moo.operators",
    "moo.dominance",
    "moo.archive",
    "runtime.evaluator",
    "moo.robustness",
    "moo.archipelago",
    "runtime.checkpoint",
    "serve",
    "trace",
)


class Span(NamedTuple):
    """One finished span: ``[start, end]`` on the tracer clock."""

    span_id: int
    parent_id: "int | None"
    layer: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Wall time between entering and leaving the span."""
        return self.end - self.start


class Tracer:
    """Records spans in memory; each thread keeps its own parent stack.

    Parameters
    ----------
    clock:
        Monotonic clock in seconds; tests pass a fake one.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str) -> tuple:
        """Open a span under the calling thread's innermost open span."""
        stack = self._stack()
        span_id = next(self._ids)
        token = (span_id, stack[-1] if stack else None, layer, self.clock())
        stack.append(span_id)
        return token

    def exit(self, token: tuple) -> None:
        """Close the span opened by :meth:`enter`."""
        end = self.clock()
        self._stack().pop()
        span_id, parent_id, layer, start = token
        self.spans.append(Span(span_id, parent_id, layer, start, end))

    @contextmanager
    def span(self, layer: str):
        """``with tracer.span(layer):`` form of :meth:`enter` / :meth:`exit`."""
        token = self.enter(layer)
        try:
            yield
        finally:
            self.exit(token)

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to a named counter."""
        with self._lock:
            self.counters[name] += value


def _covered(intervals: list, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Iterable[Span]) -> dict:
    """Self time of every span: its duration minus its children's coverage."""
    spans = list(spans)
    children: dict = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append((span.start, span.end))
    return {
        span.span_id: span.duration - _covered(children[span.span_id], span.start, span.end)
        for span in spans
    }


def root_time(spans: Iterable[Span]) -> float:
    """Total duration of the spans that have no parent (the traced latency)."""
    return sum(span.duration for span in spans if span.parent_id is None)


def layer_table(spans: Iterable[Span]) -> dict:
    """``{layer: {"self_s": seconds, "calls": count}}`` over every layer seen."""
    spans = list(spans)
    own = self_times(spans)
    table: dict = {}
    for span in spans:
        row = table.setdefault(span.layer, {"self_s": 0.0, "calls": 0})
        row["self_s"] += own[span.span_id]
        row["calls"] += 1
    return table


def write_spans(spans: Iterable[Span], path: str) -> None:
    """Write spans as JSON lines (one object per span)."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span._asdict()) + "\n")


# ---------------------------------------------------------------------------
# Wrapping the library's call sites
# ---------------------------------------------------------------------------
def _traced(
    tracer: Tracer,
    layer: str,
    function: Callable,
    before: "Callable | None" = None,
    after: "Callable | None" = None,
) -> Callable:
    """``function`` inside a ``layer`` span; ``before`` may rewrite the args."""

    @functools.wraps(function)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if before is not None:
            args = before(tracer, args)
        token = tracer.enter(layer)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.exit(token)
        if after is not None:
            after(tracer, args, result)
        return result

    return wrapper


def _count_fresh(tracer: Tracer, archive: Any, batch: list) -> None:
    """Count offered candidates and those not already archive members."""
    with tracer.span("trace"):
        members = {member.x.tobytes() for member in archive}
        fresh = sum(candidate.x.tobytes() not in members for candidate in batch)
    tracer.count("moo.archive.offered", len(batch))
    tracer.count("moo.archive.fresh", fresh)


def _offer_many(tracer: Tracer, args: tuple) -> tuple:
    """``add_population`` hook; materializes the iterable it scans."""
    batch = list(args[1])
    _count_fresh(tracer, args[0], batch)
    return (args[0], batch) + args[2:]


def _offer_one(tracer: Tracer, args: tuple) -> tuple:
    """``add`` hook."""
    _count_fresh(tracer, args[0], [args[1]])
    return args


def _evaluated(tracer: Tracer, args: tuple, rows: int) -> None:
    tracer.count("runtime.evaluator.rows", rows)
    tracer.count("runtime.evaluator.batches", 1 if rows else 0)


def _yield_trials(tracer: Tracer, args: tuple, reports: Any) -> None:
    reports = reports if isinstance(reports, list) else [reports]
    tracer.count("moo.robustness.trials", sum(report.n_trials for report in reports))


def _migrated(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("moo.archipelago.migrations", 1)


def _checkpointed(tracer: Tracer, args: tuple, path: Any) -> None:
    if path is not None:
        tracer.count("runtime.checkpoint.saves", 1)
        tracer.count("runtime.checkpoint.bytes", path.stat().st_size)


def _call_sites() -> list:
    """``(owner, attribute, layer, before, after)`` for every wrapped name."""
    import repro.core.designer as designer
    import repro.moo.nsga2 as nsga2
    from repro.moo import kernels
    from repro.moo.archipelago import Archipelago
    from repro.moo.archive import ParetoArchive
    from repro.moo.individual import Population
    from repro.runtime.checkpoint import CheckpointManager

    return [
        (nsga2, "binary_tournament", "moo.operators", None, None),
        (nsga2, "sbx_crossover", "moo.operators", None, None),
        (nsga2, "polynomial_mutation", "moo.operators", None, None),
        (nsga2, "assign_ranks_and_crowding", "moo.dominance", None, None),
        (kernels, "crowding_truncation_order", "moo.dominance", None, None),
        (ParetoArchive, "add_population", "moo.archive", _offer_many, None),
        (ParetoArchive, "add", "moo.archive", _offer_one, None),
        (Population, "evaluate", "runtime.evaluator", None, _evaluated),
        (designer, "uptake_yield", "moo.robustness", None, _yield_trials),
        (designer, "front_yields", "moo.robustness", None, _yield_trials),
        (Archipelago, "migrate", "moo.archipelago", None, _migrated),
        (CheckpointManager, "maybe_save", "runtime.checkpoint", None, _checkpointed),
    ]


@contextmanager
def instrument(tracer: Tracer):
    """Route the library's layer entry points through ``tracer`` spans.

    Every replaced name is restored on exit, so code outside the block runs
    the library untouched.
    """
    saved = []
    try:
        for owner, name, layer, before, after in _call_sites():
            original = owner.__dict__[name]
            saved.append((owner, name, original))
            setattr(owner, name, _traced(tracer, layer, original, before, after))
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
