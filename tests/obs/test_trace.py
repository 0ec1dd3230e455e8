"""Tests of the span tracer: nesting, ids, sinks and the disabled path."""

import json
import threading

import pytest

from repro.obs.trace import (
    InMemorySink,
    JsonlSink,
    NullSink,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)


class TestSpans:
    def test_spans_nest_and_record_parent_ids(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = sink.spans  # children finish (and emit) first
        assert inner["name"] == "inner"
        assert outer["name"] == "outer"
        assert outer["parent_id"] is None
        assert inner["parent_id"] == outer["span_id"]

    def test_sibling_spans_share_the_parent(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        by_name = {span["name"]: span for span in sink.spans}
        assert by_name["a"]["parent_id"] == by_name["root"]["span_id"]
        assert by_name["b"]["parent_id"] == by_name["root"]["span_id"]

    def test_span_ids_are_unique_and_pid_prefixed(self):
        import os

        sink = InMemorySink()
        tracer = Tracer(sink)
        for _ in range(5):
            with tracer.span("s"):
                pass
        ids = [span["span_id"] for span in sink.spans]
        assert len(set(ids)) == 5
        assert all(span_id.startswith("%d-" % os.getpid()) for span_id in ids)

    def test_attributes_at_open_and_via_set(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        with tracer.span("work", items=3) as span:
            span.set(done=True)
        assert sink.spans[0]["attributes"] == {"items": 3, "done": True}

    def test_durations_are_non_negative_and_starts_monotonic(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        first, second = sink.spans
        assert first["duration"] >= 0.0
        assert second["start"] >= first["start"]

    def test_threads_see_their_own_span_lineage(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        barrier = threading.Barrier(2)
        emit_lock = threading.Lock()

        def worker(name):
            with tracer.span(name):
                barrier.wait()  # both spans open concurrently
                with emit_lock:
                    pass

        threads = [threading.Thread(target=worker, args=("t%d" % i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Neither thread's span adopted the other as parent.
        assert [span["parent_id"] for span in sink.spans] == [None, None]


class TestDisabledPath:
    def test_default_tracer_is_disabled_and_returns_the_shared_noop(self):
        tracer = Tracer(None)
        assert not tracer.enabled
        assert tracer.span("a") is tracer.span("b")

    def test_null_sink_counts_as_disabled(self):
        assert not Tracer(NullSink()).enabled

    def test_noop_span_supports_the_span_surface(self):
        tracer = Tracer(None)
        with tracer.span("ignored", x=1) as span:
            assert span.set(y=2) is span


class TestGlobalTracer:
    def test_use_tracer_installs_and_restores(self):
        sink = InMemorySink()
        before = get_tracer()
        with use_tracer(Tracer(sink)):
            with get_tracer().span("scoped"):
                pass
        assert get_tracer() is before
        assert [span["name"] for span in sink.spans] == ["scoped"]

    def test_set_tracer_none_installs_a_disabled_tracer(self):
        previous = set_tracer(None)
        try:
            assert not get_tracer().enabled
        finally:
            set_tracer(previous)


class TestJsonlSink:
    def test_appends_one_json_object_per_span(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonlSink(path))
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        tracer.close()
        lines = path.read_text().strip().splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["a", "b"]

    def test_append_mode_extends_an_existing_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        for name in ("first", "second"):
            tracer = Tracer(JsonlSink(path))
            with tracer.span(name):
                pass
            tracer.close()
        lines = path.read_text().strip().splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["first", "second"]

    def test_no_file_until_the_first_span(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.close()
        assert not path.exists()


class TestInstrumentationPoints:
    def test_solve_emits_nested_spans_under_one_root(self):
        from repro.moo.testproblems import Schaffer
        from repro.solve import solve

        sink = InMemorySink()
        with use_tracer(Tracer(sink)):
            solve(Schaffer(), "nsga2", seed=1, termination=3, population_size=8,
                  cache=True)
        names = {span["name"] for span in sink.spans}
        assert {"solve.run", "solve.initialize", "solve.generation",
                "evaluator.batch", "evaluator.cache_fill",
                "kernels.nondominated_sort"} <= names
        roots = [span for span in sink.spans if span["parent_id"] is None]
        assert [span["name"] for span in roots] == ["solve.run"]

    def test_archipelago_migration_span_carries_edge_attributes(self):
        from repro.moo.testproblems import Schaffer
        from repro.solve import solve

        sink = InMemorySink()
        with use_tracer(Tracer(sink)):
            solve(Schaffer(), "pmo2", seed=1, termination=4,
                  island_population_size=8, migration_interval=2)
        migrations = [s for s in sink.spans if s["name"] == "archipelago.migrate"]
        assert migrations
        for span in migrations:
            assert span["attributes"]["islands"] >= 1
            assert "active_edges" in span["attributes"]

    def test_disabled_tracer_changes_nothing_bitwise(self):
        import numpy as np

        from repro.moo.testproblems import Schaffer
        from repro.solve import solve

        def front(tracing):
            if tracing:
                with use_tracer(Tracer(InMemorySink())):
                    result = solve(Schaffer(), "nsga2", seed=5, termination=4,
                                   population_size=8)
            else:
                result = solve(Schaffer(), "nsga2", seed=5, termination=4,
                               population_size=8)
            return result.front_objectives()

        assert np.array_equal(front(False), front(True))
