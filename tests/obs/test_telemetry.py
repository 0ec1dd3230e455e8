"""Tests of RunTelemetry: the three artifacts, resume semantics, re-hydration."""

import io
import json

import pytest

from repro.core.artifacts import record_solve_run
from repro.exceptions import ConfigurationError
from repro.moo.testproblems import Schaffer
from repro.obs.metrics import get_metrics
from repro.obs.telemetry import (
    METRICS_NAME,
    TIMESERIES_NAME,
    TRACE_NAME,
    LiveProgress,
    RunTelemetry,
    load_telemetry,
)
from repro.obs.trace import get_tracer
from repro.solve import Observer, solve


def _solve_with_telemetry(directory, generations, resume="append", **kwargs):
    telemetry = RunTelemetry(directory, resume=resume)
    with telemetry:
        result = solve(
            Schaffer(),
            "nsga2",
            seed=11,
            termination=generations,
            population_size=8,
            observers=[telemetry],
            **kwargs,
        )
        telemetry.finalize(result)
    return result


class TestArtifacts:
    def test_recorded_run_writes_the_three_files(self, tmp_path):
        result = _solve_with_telemetry(tmp_path, 4, cache=True)
        for name in (TRACE_NAME, METRICS_NAME, TIMESERIES_NAME):
            assert (tmp_path / name).is_file(), name
        assert load_telemetry(tmp_path).ledger == {}  # no ledger.json yet
        record_solve_run(tmp_path, Schaffer(), result, {})
        data = load_telemetry(tmp_path)
        assert data.metrics["counters"]["solve.generations"] == 4
        assert data.ledger["total_evaluations"] == result.ledger.total_evaluations > 0
        assert data.ledger["total_cache_hits"] == result.ledger.total_cache_hits
        assert [row["generation"] for row in data.timeseries] == [1, 2, 3, 4]
        assert {span["name"] for span in data.spans} >= {
            "solve.run",
            "solve.generation",
            "evaluator.batch",
        }

    def test_timeseries_rows_carry_convergence_columns(self, tmp_path):
        _solve_with_telemetry(tmp_path, 3)
        for row in load_telemetry(tmp_path).timeseries:
            assert row["front_size"] >= 1
            assert row["feasible_fraction"] == 1.0
            assert row["evaluations_delta"] == 8
            assert row["elapsed"] >= 0.0

    def test_convergence_false_skips_front_materialization(self, tmp_path):
        telemetry = RunTelemetry(tmp_path, convergence=False)
        with telemetry:
            result = solve(Schaffer(), "nsga2", seed=1, termination=2,
                           population_size=8, observers=[telemetry])
            telemetry.finalize(result)
        for row in load_telemetry(tmp_path).timeseries:
            assert row["front_size"] is None
            assert row["hypervolume"] is None

    def test_reference_front_enables_the_igd_column(self, tmp_path):
        import numpy as np

        reference = np.array([[0.0, 4.0], [1.0, 1.0], [4.0, 0.0]])
        telemetry = RunTelemetry(tmp_path, reference_front=reference)
        with telemetry:
            result = solve(Schaffer(), "nsga2", seed=1, termination=2,
                           population_size=8, observers=[telemetry])
            telemetry.finalize(result)
        rows = load_telemetry(tmp_path).timeseries
        assert all(row["igd"] is not None for row in rows)

    def test_close_without_finalize_still_writes_metrics(self, tmp_path):
        telemetry = RunTelemetry(tmp_path)
        with telemetry:
            solve(Schaffer(), "nsga2", seed=1, termination=2,
                  population_size=8, observers=[telemetry])
        snapshot = json.loads((tmp_path / METRICS_NAME).read_text())
        assert snapshot["counters"]["solve.generations"] == 2

    def test_globals_are_restored_after_close(self, tmp_path):
        tracer_before = get_tracer()
        metrics_before = get_metrics()
        _solve_with_telemetry(tmp_path, 2)
        assert get_tracer() is tracer_before
        assert get_metrics() is metrics_before

    def test_invalid_resume_mode_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="append.*rotate"):
            RunTelemetry(tmp_path, resume="overwrite")


class TestResume:
    def test_append_produces_one_continuous_record(self, tmp_path):
        checkpoints = tmp_path / "checkpoints"
        run_dir = tmp_path / "telemetry"
        telemetry = RunTelemetry(run_dir)
        with telemetry:
            result = solve(Schaffer(), "nsga2", seed=3, termination=3,
                           population_size=8, cache=True, observers=[telemetry],
                           checkpoint_dir=str(checkpoints), checkpoint_interval=1)
            telemetry.finalize(result)
        telemetry = RunTelemetry(run_dir)  # same directory, append mode
        with telemetry:
            result = solve(Schaffer(), "nsga2", seed=3, termination=6,
                           population_size=8, cache=True, observers=[telemetry],
                           checkpoint_dir=str(checkpoints), checkpoint_interval=1)
            telemetry.finalize(result)
        record_solve_run(run_dir, Schaffer(), result, {})
        data = load_telemetry(run_dir)
        assert [row["generation"] for row in data.timeseries] == [1, 2, 3, 4, 5, 6]
        assert data.metrics["counters"]["solve.generations"] == 6
        # The ledger travels inside checkpoints (cumulative), so the recorded
        # ledger.json covers both segments exactly once.
        assert data.ledger["total_evaluations"] == result.ledger.total_evaluations
        # One continuous trace: both segments' spans in one file.
        assert sum(1 for s in data.spans if s["name"] == "solve.run") == 2

    def test_interrupted_run_resumed_in_append_mode_counts_once(self, tmp_path):
        # An interrupt after the generation-2 checkpoint replays generation 3
        # on resume; evaluations and timeseries rows must not count it twice.
        class InterruptAt(Observer):
            def on_generation(self, event):
                if event.generation == 3:
                    raise KeyboardInterrupt  # not caught by observer dispatch

        checkpoints = tmp_path / "checkpoints"
        run_dir = tmp_path / "telemetry"
        kwargs = dict(population_size=8, cache=True,
                      checkpoint_dir=str(checkpoints), checkpoint_interval=2)
        telemetry = RunTelemetry(run_dir)
        with pytest.raises(KeyboardInterrupt), telemetry:
            solve(Schaffer(), "nsga2", seed=5, termination=6,
                  observers=[telemetry, InterruptAt()], **kwargs)
        telemetry = RunTelemetry(run_dir)  # same directory, append mode
        with telemetry:
            result = solve(Schaffer(), "nsga2", seed=5, termination=6,
                           observers=[telemetry], **kwargs)
            telemetry.finalize(result)
        record_solve_run(run_dir, Schaffer(), result, {})
        assert result.checkpoint.restored_generation == 2
        data = load_telemetry(run_dir)
        assert data.ledger["total_evaluations"] == result.ledger.total_evaluations
        assert [row["generation"] for row in data.timeseries] == [1, 2, 3, 4, 5, 6]
        names = [
            name
            for section in ("counters", "gauges", "histograms")
            for name in json.loads((run_dir / METRICS_NAME).read_text())[section]
        ]
        assert not [
            name
            for name in names
            if name.startswith(("evaluator.", "ledger.")) or name == "solve.evaluations"
        ]

    def test_rotate_moves_the_previous_segment_aside(self, tmp_path):
        _solve_with_telemetry(tmp_path, 2)
        _solve_with_telemetry(tmp_path, 3, resume="rotate")
        assert (tmp_path / "trace-1.jsonl").is_file()
        assert (tmp_path / "metrics-1.json").is_file()
        assert (tmp_path / "timeseries-1.csv").is_file()
        data = load_telemetry(tmp_path)
        assert [row["generation"] for row in data.timeseries] == [1, 2, 3]
        assert data.metrics["counters"]["solve.generations"] == 3


class TestLoadTelemetry:
    def test_missing_directory_content_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no telemetry artifacts"):
            load_telemetry(tmp_path)

    def test_partial_telemetry_loads_with_empty_sections(self, tmp_path):
        (tmp_path / METRICS_NAME).write_text('{"counters": {"n": 1}}')
        data = load_telemetry(tmp_path)
        assert data.metrics["counters"] == {"n": 1}
        assert data.spans == []
        assert data.timeseries == []

    def test_registry_property_rehydrates_the_snapshot(self, tmp_path):
        _solve_with_telemetry(tmp_path, 2)
        registry = load_telemetry(tmp_path).registry
        assert registry.counter("solve.generations").value == 2

    def test_repeated_csv_headers_are_tolerated(self, tmp_path):
        (tmp_path / TIMESERIES_NAME).write_text(
            "generation,evaluations\n1,8\ngeneration,evaluations\n2,16\n"
        )
        rows = load_telemetry(tmp_path).timeseries
        assert [row["generation"] for row in rows] == [1, 2]


class TestLiveProgress:
    def test_renders_one_line_per_generation(self):
        stream = io.StringIO()
        observer = LiveProgress(stream=stream)
        solve(Schaffer(), "nsga2", seed=1, termination=3, population_size=8,
              observers=[observer])
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 3
        assert "gen" in lines[0] and "evals" in lines[0] and "hv" in lines[0]

    def test_every_filters_lines_and_markers_always_print(self):
        stream = io.StringIO()
        observer = LiveProgress(stream=stream, every=2, hypervolume=False)
        solve(Schaffer(), "archipelago", seed=1, termination=4,
              island_population_size=8, migration_interval=2,
              observers=[observer])
        text = stream.getvalue()
        generation_lines = [l for l in text.splitlines() if "evals" in l]
        assert len(generation_lines) == 2  # generations 2 and 4
        assert "migration #" in text

    def test_rejects_non_positive_every(self):
        with pytest.raises(ConfigurationError, match="at least 1"):
            LiveProgress(every=0)
