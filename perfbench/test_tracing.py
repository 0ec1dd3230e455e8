"""Tests of the benchmark's trace arithmetic: ``python3 -m pytest perfbench -q``."""

import math
import threading

import pytest

from tracing import LAYERS, Span, Tracer, instrument, layer_table, root_time, self_times


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        Span(1, None, "solve", 0.0, 10.0),
        Span(2, 1, "moo.archive", 1.0, 3.0),
        Span(3, 1, "moo.operators", 2.0, 5.0),  # overlaps span 2: counted once
        Span(4, 2, "moo.dominance", 1.5, 2.0),
        Span(5, 1, "runtime.evaluator", 9.0, 12.0),  # runs past its parent: clipped
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - (4.0 + 1.0))
    assert own[2] == pytest.approx(2.0 - 0.5)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.5)
    assert own[5] == pytest.approx(3.0)


def test_layer_self_times_sum_to_traced_latency():
    clock = FakeClock()
    tracer = Tracer(clock)
    for _ in range(3):
        with tracer.span("solve"):
            clock.advance(0.25)
            with tracer.span("moo.operators"):
                clock.advance(1.0)
            with tracer.span("moo.archive"):
                clock.advance(0.5)
                with tracer.span("trace"):
                    clock.advance(0.125)
            clock.advance(0.0625)
    table = layer_table(tracer.spans)
    assert root_time(tracer.spans) == pytest.approx(3 * 1.9375)
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(3 * 1.9375)
    assert table["solve"]["self_s"] == pytest.approx(3 * 0.3125)
    assert table["moo.archive"] == {"self_s": pytest.approx(1.5), "calls": 3}


def test_threads_keep_their_own_parents():
    tracer = Tracer()

    def job() -> None:
        with tracer.span("serve"):
            with tracer.span("trace"):
                pass

    threads = [threading.Thread(target=job) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    roots = {span.span_id for span in tracer.spans if span.parent_id is None}
    children = [span for span in tracer.spans if span.parent_id is not None]
    assert len(roots) == 4 and len(children) == 4
    assert {span.parent_id for span in children} == roots


def test_instrumented_solve_adds_up_and_restores_the_library():
    import repro.moo.nsga2 as nsga2
    from repro.moo.individual import Population
    from repro.problems import build_problem
    from repro.solve import solve

    original = nsga2.binary_tournament
    problem = build_problem("zdt1")
    tracer = Tracer()
    with instrument(tracer):
        with tracer.span("solve"):
            result = solve(problem, "nsga2", population_size=8, termination=3, seed=1)
    assert nsga2.binary_tournament is original
    assert "evaluate" in Population.__dict__ and not hasattr(Population.evaluate, "__wrapped__")

    table = layer_table(tracer.spans)
    assert set(table) <= set(LAYERS)
    assert table["runtime.evaluator"]["calls"] == 4
    assert tracer.counters["runtime.evaluator.rows"] == result.evaluations == 32
    assert table["moo.operators"]["calls"] == 3 * (8 + 4 + 8)
    assert tracer.counters["moo.archive.offered"] == 32
    assert 0 < tracer.counters["moo.archive.fresh"] <= 32
    total = root_time(tracer.spans)
    assert math.isclose(sum(row["self_s"] for row in table.values()), total, rel_tol=1e-9)

    # Instrumentation must not change the result.
    again = solve(problem, "nsga2", population_size=8, termination=3, seed=1)
    assert again.front_objectives().tobytes() == result.front_objectives().tobytes()
