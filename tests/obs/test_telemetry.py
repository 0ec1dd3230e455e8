"""Tests of RunTelemetry: the two artifacts, resume semantics, re-hydration."""

import io
import json

import pytest

from repro.cli.main import main
from repro.core.artifacts import record_solve_run
from repro.exceptions import ConfigurationError
from repro.moo.testproblems import Schaffer
from repro.obs.telemetry import (
    TIMESERIES_NAME,
    TRACE_NAME,
    LiveProgress,
    RunTelemetry,
    load_telemetry,
)
from repro.obs.trace import get_tracer
from repro.solve import Observer, solve


def _solve_with_telemetry(directory, generations, **kwargs):
    with RunTelemetry(directory) as telemetry:
        return solve(
            Schaffer(),
            "nsga2",
            seed=11,
            termination=generations,
            population_size=8,
            observers=[telemetry],
            **kwargs,
        )


class TestArtifacts:
    def test_recorded_run_writes_the_three_files(self, tmp_path):
        result = _solve_with_telemetry(tmp_path, 4, cache=True)
        for name in (TRACE_NAME, TIMESERIES_NAME):
            assert (tmp_path / name).is_file(), name
        assert not (tmp_path / "metrics.json").exists()
        assert load_telemetry(tmp_path).ledger == {}  # no ledger.json yet
        record_solve_run(tmp_path, Schaffer(), result, {})
        assert (tmp_path / "ledger.json").is_file()
        data = load_telemetry(tmp_path)
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
        with RunTelemetry(tmp_path, convergence=False) as telemetry:
            solve(Schaffer(), "nsga2", seed=1, termination=2,
                  population_size=8, observers=[telemetry])
        for row in load_telemetry(tmp_path).timeseries:
            assert row["front_size"] is None
            assert row["hypervolume"] is None

    def test_reference_front_enables_the_igd_column(self, tmp_path):
        import numpy as np

        reference = np.array([[0.0, 4.0], [1.0, 1.0], [4.0, 0.0]])
        with RunTelemetry(tmp_path, reference_front=reference) as telemetry:
            solve(Schaffer(), "nsga2", seed=1, termination=2,
                  population_size=8, observers=[telemetry])
        rows = load_telemetry(tmp_path).timeseries
        assert all(row["igd"] is not None for row in rows)

    def test_close_leaves_a_complete_timeseries_and_trace(self, tmp_path):
        # A solve that raises mid-run: leaving the with-block closes both
        # files, each holding every generation recorded before the error.
        class StopAt(Observer):
            def on_generation(self, event):
                if event.generation == 2:
                    raise KeyboardInterrupt  # not caught by observer dispatch

        with pytest.raises(KeyboardInterrupt), RunTelemetry(tmp_path) as telemetry:
            solve(Schaffer(), "nsga2", seed=1, termination=5,
                  population_size=8, observers=[telemetry, StopAt()])
        lines = (tmp_path / TIMESERIES_NAME).read_text().splitlines()
        assert len(lines) == 3  # header + generations 1 and 2
        assert all(line.count(",") == 8 for line in lines)
        spans = [json.loads(line) for line in (tmp_path / TRACE_NAME).read_text().splitlines()]
        assert [s["attributes"]["generation"] for s in spans
                if s["name"] == "solve.generation"] == [1, 2]
        assert [row["generation"] for row in load_telemetry(tmp_path).timeseries] == [1, 2]

    def test_checkpoint_spans_carry_the_saved_file_size(self, tmp_path):
        checkpoints = tmp_path / "checkpoints"
        _solve_with_telemetry(tmp_path / "run", 4, checkpoint_dir=str(checkpoints),
                              checkpoint_interval=2)
        spans = [s["attributes"] for s in load_telemetry(tmp_path / "run").spans
                 if s["name"] == "solve.checkpoint"]
        sizes = {path.name: path.stat().st_size for path in checkpoints.iterdir()}
        assert [(span["generation"], span["saved"], span.get("bytes")) for span in spans] == [
            (1, False, None),
            (2, True, sizes["checkpoint-00000002.pkl"]),
            (3, False, None),
            (4, True, sizes["checkpoint-00000004.pkl"]),
        ]

    def test_globals_are_restored_after_close(self, tmp_path):
        tracer_before = get_tracer()
        _solve_with_telemetry(tmp_path, 2)
        assert get_tracer() is tracer_before


class TestResume:
    def test_append_produces_one_continuous_record(self, tmp_path):
        checkpoints = tmp_path / "checkpoints"
        run_dir = tmp_path / "telemetry"
        for termination in (3, 6):  # the second segment appends to the first
            with RunTelemetry(run_dir) as telemetry:
                result = solve(Schaffer(), "nsga2", seed=3, termination=termination,
                               population_size=8, cache=True, observers=[telemetry],
                               checkpoint_dir=str(checkpoints), checkpoint_interval=1)
        record_solve_run(run_dir, Schaffer(), result, {})
        data = load_telemetry(run_dir)
        assert [row["generation"] for row in data.timeseries] == [1, 2, 3, 4, 5, 6]
        assert data.timeseries[-1]["evaluations"] == result.evaluations
        # The ledger travels inside checkpoints (cumulative), so the recorded
        # ledger.json covers both segments exactly once.
        assert data.ledger["total_evaluations"] == result.ledger.total_evaluations
        # One continuous trace: both segments' spans in one file.
        assert sum(1 for s in data.spans if s["name"] == "solve.run") == 2

    def test_interrupted_run_resumed_in_append_mode_counts_once(self, tmp_path, capsys):
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
        with pytest.raises(KeyboardInterrupt), RunTelemetry(run_dir) as telemetry:
            solve(Schaffer(), "nsga2", seed=5, termination=6,
                  observers=[telemetry, InterruptAt()], **kwargs)
        with RunTelemetry(run_dir) as telemetry:  # same directory, appended to
            result = solve(Schaffer(), "nsga2", seed=5, termination=6,
                           observers=[telemetry], **kwargs)
        record_solve_run(run_dir, Schaffer(), result, {})
        assert result.checkpoint.restored_generation == 2
        data = load_telemetry(run_dir)
        assert data.ledger["total_evaluations"] == result.ledger.total_evaluations
        assert [row["generation"] for row in data.timeseries] == [1, 2, 3, 4, 5, 6]
        # No projection beside the record: the summary is derived from it.
        assert not (run_dir / "metrics.json").exists()
        assert "metrics.json" not in json.loads((run_dir / "manifest.json").read_text())[
            "artifacts"
        ]
        assert main(["stats", str(run_dir), "--json"]) == 0
        run = json.loads(capsys.readouterr().out)["run"]
        assert run["generation"] == 6 == result.generations
        assert run["evaluations"] == result.evaluations
        last = data.timeseries[-1]
        assert {key: run[key] for key in last if key in run} == {
            key: last[key] for key in last if key in run
        }


class TestLoadTelemetry:
    def test_missing_directory_content_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no telemetry artifacts"):
            load_telemetry(tmp_path)

    def test_partial_telemetry_loads_with_empty_sections(self, tmp_path):
        (tmp_path / TIMESERIES_NAME).write_text("generation,evaluations\n1,8\n")
        data = load_telemetry(tmp_path)
        assert data.timeseries == [{"generation": 1, "evaluations": 8}]
        assert data.spans == []
        assert data.ledger == {}

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
        solve(Schaffer(), "pmo2", seed=1, termination=4,
              island_population_size=8, migration_interval=2,
              observers=[observer])
        text = stream.getvalue()
        generation_lines = [l for l in text.splitlines() if "evals" in l]
        assert len(generation_lines) == 2  # generations 2 and 4
        assert "migration #" in text

    def test_rejects_non_positive_every(self):
        with pytest.raises(ConfigurationError, match="at least 1"):
            LiveProgress(every=0)
