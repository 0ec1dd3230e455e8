"""Tests of the metrics registry: metric kinds, snapshots and ledger-style merge."""

import pickle

import pytest

from repro.exceptions import ConfigurationError
from repro.obs.metrics import (
    BATCH_SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    registry_from_snapshot,
    use_metrics,
)


class TestMetricKinds:
    def test_counter_accumulates_and_rejects_negative(self):
        counter = Counter()
        counter.inc()
        counter.inc(41)
        assert counter.value == 42
        with pytest.raises(ConfigurationError, match="only increase"):
            counter.inc(-1)

    def test_gauge_is_last_write_wins(self):
        gauge = Gauge()
        assert gauge.value is None
        gauge.set(1.0)
        gauge.set(2.5)
        assert gauge.value == 2.5

    def test_histogram_buckets_and_overflow(self):
        histogram = Histogram((1, 10, 100))
        for value in (0.5, 5, 50, 500):
            histogram.observe(value)
        assert histogram.counts == [1, 1, 1, 1]
        assert histogram.count == 4
        assert histogram.min == 0.5
        assert histogram.max == 500
        assert histogram.mean == pytest.approx(555.5 / 4)

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            Histogram((1, 1, 2))
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            Histogram(())

    def test_histogram_merge_requires_identical_buckets(self):
        a, b = Histogram((1, 2)), Histogram((1, 3))
        with pytest.raises(ConfigurationError, match="different buckets"):
            a.merge(b)


class TestRegistryMerge:
    """Ledger-style aggregation: the pooled-worker snapshot contract."""

    def test_counters_add_gauges_adopt_histograms_merge(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.counter("evaluations").inc(10)
        parent.gauge("front_size").set(4.0)
        parent.histogram("batch", (8, 64)).observe(5)
        worker.counter("evaluations").inc(7)
        worker.counter("batches").inc(1)
        worker.gauge("front_size").set(9.0)
        worker.histogram("batch", (8, 64)).observe(50)
        parent.merge(worker)
        assert parent.counter("evaluations").value == 17
        assert parent.counter("batches").value == 1
        assert parent.gauge("front_size").value == 9.0
        assert parent.histogram("batch", (8, 64)).counts == [1, 1, 0]

    def test_merge_accepts_raw_snapshots(self):
        worker = MetricsRegistry()
        worker.counter("n").inc(3)
        parent = MetricsRegistry().merge(worker.snapshot())
        assert parent.counter("n").value == 3

    def test_merge_preserves_unset_gauges(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.gauge("hv").set(1.5)
        worker.gauge("hv")  # created but never set
        parent.merge(worker)
        assert parent.gauge("hv").value == 1.5

    def test_many_worker_snapshots_merge_like_one_registry(self):
        combined = MetricsRegistry()
        for rows in (4, 8, 16):
            worker = MetricsRegistry()
            worker.counter("evaluations").inc(rows)
            worker.histogram("batch_size", BATCH_SIZE_BUCKETS).observe(rows)
            combined.merge(worker.snapshot())
        assert combined.counter("evaluations").value == 28
        assert combined.histogram("batch_size", BATCH_SIZE_BUCKETS).count == 3


class TestSnapshots:
    def test_snapshot_round_trips_through_rehydration(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(5)
        registry.gauge("b").set(1.25)
        registry.histogram("c", (1, 10)).observe(3)
        rebuilt = registry_from_snapshot(registry.snapshot())
        assert rebuilt.snapshot() == registry.snapshot()

    def test_empty_histogram_round_trips(self):
        registry = MetricsRegistry()
        registry.histogram("empty", (1, 2))
        rebuilt = registry_from_snapshot(registry.snapshot())
        assert rebuilt.snapshot() == registry.snapshot()

    def test_registry_is_picklable(self):
        registry = MetricsRegistry()
        registry.counter("n").inc(2)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.snapshot() == registry.snapshot()


class TestGlobalRegistry:
    def test_use_metrics_installs_and_restores(self):
        registry = MetricsRegistry()
        before = get_metrics()
        with use_metrics(registry):
            get_metrics().counter("scoped").inc()
        assert get_metrics() is before
        assert registry.counter("scoped").value == 1
