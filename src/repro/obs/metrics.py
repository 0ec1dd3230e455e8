"""Counters, gauges and fixed-bucket histograms behind one registry.

The :class:`MetricsRegistry` is the numeric side of the observability layer:
where :mod:`repro.obs.trace` answers *where did the time go*, the registry
answers *how far did the run get* — generations, migrations, checkpoints,
front size, run rates.  Evaluations and cache hits are counted once, in the
evaluators' :class:`~repro.runtime.ledger.EvaluationLedger`, not here.
Three metric kinds cover every signal the solve stack produces:

* :class:`Counter` — monotonically increasing totals (generations, migrations);
* :class:`Gauge` — last-written values (front size, generation index);
* :class:`Histogram` — fixed bucket boundaries chosen at creation, so two
  histograms of the same metric are mergeable bucket by bucket (batch sizes,
  span durations).

Registries are plain picklable objects and :meth:`MetricsRegistry.merge`
combines snapshots the same way pooled evaluation merges
:class:`~repro.runtime.ledger.EvaluationLedger` phase stats: counters and
histogram buckets add, gauges keep the merged-in (most recent) value.  That
is what makes the registry process-pool-safe — each worker can accumulate its
own registry and the parent folds the per-worker snapshots together.

Example
-------
Count work and snapshot the registry::

    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    registry.counter("evaluations").inc(128)
    registry.histogram("batch_size", BATCH_SIZE_BUCKETS).observe(128)
    snapshot = registry.snapshot()
    assert snapshot["counters"]["evaluations"] == 128
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Iterator, Sequence

from repro.exceptions import ConfigurationError

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "DURATION_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry_from_snapshot",
    "get_metrics",
    "set_metrics",
    "use_metrics",
]

#: Schema version stamped on registry snapshots (``metrics.json``).
METRICS_FORMAT_VERSION = 1

#: Default bucket boundaries for batch-size histograms (rows per batch).
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)

#: Default bucket boundaries for duration histograms (seconds).
DURATION_BUCKETS = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
)


class Counter:
    """A monotonically increasing total.

    Example
    -------
    >>> counter = Counter()
    >>> counter.inc()
    >>> counter.inc(41)
    >>> counter.value
    42
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ConfigurationError("counters only increase; got %r" % (amount,))
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Counter(%r)" % (self.value,)


class Gauge:
    """A last-write-wins value (``None`` until first set).

    Example
    -------
    >>> gauge = Gauge()
    >>> gauge.set(7.5)
    >>> gauge.value
    7.5
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float | None = None

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Gauge(%r)" % (self.value,)


class Histogram:
    """Fixed-boundary histogram with count/sum/min/max summary statistics.

    Parameters
    ----------
    buckets:
        Strictly increasing upper bucket boundaries.  An observation lands in
        the first bucket whose boundary is >= the value; values beyond the
        last boundary land in the implicit overflow bucket.

    Example
    -------
    >>> histogram = Histogram((1, 10, 100))
    >>> for value in (0.5, 5, 50, 500):
    ...     histogram.observe(value)
    >>> histogram.counts
    [1, 1, 1, 1]
    """

    __slots__ = ("buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, buckets: Sequence[float]) -> None:
        boundaries = tuple(float(edge) for edge in buckets)
        if not boundaries or any(
            b <= a for a, b in zip(boundaries, boundaries[1:])
        ):
            raise ConfigurationError(
                "histogram buckets must be non-empty and strictly increasing"
            )
        self.buckets = boundaries
        #: Per-bucket observation counts; one extra slot for the overflow bucket.
        self.counts = [0] * (len(boundaries) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        index = 0
        for index, edge in enumerate(self.buckets):
            if value <= edge:
                break
        else:
            index = len(self.buckets)
        self.counts[index] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Average observation (0.0 before the first one)."""
        return self.sum / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        """Plain-dictionary snapshot (buckets, counts and summary stats)."""
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold another histogram with identical buckets into this one."""
        if other.buckets != self.buckets:
            raise ConfigurationError(
                "cannot merge histograms with different buckets (%r vs %r)"
                % (self.buckets, other.buckets)
            )
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Histogram(count=%d, mean=%.4g)" % (self.count, self.mean)


class MetricsRegistry:
    """Name-addressed counters, gauges and histograms with snapshot/merge.

    Metric getters are get-or-create, so instrumentation points never need a
    registration step; names are dotted lowercase by convention
    (``solve.generations``, ``solve.front_size``).

    Example
    -------
    Merge two worker snapshots the way pooled ledger stats merge::

        >>> a, b = MetricsRegistry(), MetricsRegistry()
        >>> a.counter("evaluations").inc(10)
        >>> b.counter("evaluations").inc(5)
        >>> _ = a.merge(b)
        >>> a.counter("evaluations").value
        15
    """

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Get-or-create accessors
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters.setdefault(name, Counter())
        return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        metric = self.gauges.get(name)
        if metric is None:
            metric = self.gauges.setdefault(name, Gauge())
        return metric

    def histogram(
        self, name: str, buckets: Sequence[float] = BATCH_SIZE_BUCKETS
    ) -> Histogram:
        """The histogram under ``name`` (created with ``buckets`` on first use)."""
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms.setdefault(name, Histogram(buckets))
        return metric

    # ------------------------------------------------------------------
    # Snapshots and merging
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-able snapshot of every metric (the ``metrics.json`` schema)."""
        return {
            "format_version": METRICS_FORMAT_VERSION,
            "counters": {name: metric.value for name, metric in sorted(self.counters.items())},
            "gauges": {name: metric.value for name, metric in sorted(self.gauges.items())},
            "histograms": {
                name: metric.as_dict() for name, metric in sorted(self.histograms.items())
            },
        }

    def merge(self, other: "MetricsRegistry | dict") -> "MetricsRegistry":
        """Fold another registry (or its snapshot) into this one; returns self.

        Merge semantics mirror :meth:`EvaluationLedger.merge
        <repro.runtime.ledger.EvaluationLedger.merge>`: counters and histogram
        buckets add, gauges adopt the merged-in value when it is set.  This is
        the aggregation path for per-worker snapshots of pooled runs.
        """
        if isinstance(other, dict):
            other = registry_from_snapshot(other)
        for name, counter in other.counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other.gauges.items():
            if gauge.value is not None:
                self.gauge(name).set(gauge.value)
        for name, histogram in other.histograms.items():
            self.histogram(name, histogram.buckets).merge(histogram)
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "MetricsRegistry(counters=%d, gauges=%d, histograms=%d)" % (
            len(self.counters),
            len(self.gauges),
            len(self.histograms),
        )


def registry_from_snapshot(snapshot: dict) -> MetricsRegistry:
    """Re-hydrate a :meth:`MetricsRegistry.snapshot` dictionary.

    Example
    -------
    >>> registry = MetricsRegistry()
    >>> registry.counter("n").inc(3)
    >>> registry_from_snapshot(registry.snapshot()).counter("n").value
    3
    """
    registry = MetricsRegistry()
    for name, value in snapshot.get("counters", {}).items():
        registry.counter(name).inc(value)
    for name, value in snapshot.get("gauges", {}).items():
        if value is not None:
            registry.gauge(name).set(value)
    for name, payload in snapshot.get("histograms", {}).items():
        histogram = registry.histogram(name, payload["buckets"])
        histogram.counts = list(payload["counts"])
        histogram.count = int(payload["count"])
        histogram.sum = float(payload["sum"])
        histogram.min = float(payload["min"]) if payload.get("min") is not None else math.inf
        histogram.max = (
            float(payload["max"]) if payload.get("max") is not None else -math.inf
        )
    return registry


# ---------------------------------------------------------------------------
# The process-global registry used by the built-in instrumentation points
# ---------------------------------------------------------------------------
_METRICS = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-global registry the instrumentation points record into.

    A default registry is always present (counters are cheap enough to keep
    on), and :class:`repro.obs.telemetry.RunTelemetry` installs its own for
    the duration of a recorded run so the run's ``metrics.json`` also
    captures ``solve.observer_errors``.  Evaluations are not counted here:
    the evaluators' :class:`~repro.runtime.ledger.EvaluationLedger` is the
    one evaluation counter.
    """
    return _METRICS


def set_metrics(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Install ``registry`` as the process-global one; returns the previous.

    Passing ``None`` installs a fresh empty registry.
    """
    global _METRICS
    previous = _METRICS
    _METRICS = registry if registry is not None else MetricsRegistry()
    return previous


@contextmanager
def use_metrics(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Context manager installing ``registry`` globally for the ``with`` block.

    Example
    -------
    >>> registry = MetricsRegistry()
    >>> with use_metrics(registry):
    ...     get_metrics().counter("scoped").inc()
    >>> registry.counter("scoped").value
    1
    """
    previous = set_metrics(registry)
    try:
        yield registry
    finally:
        set_metrics(previous)
