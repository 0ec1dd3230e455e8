"""CLI tests of the observability surface: --telemetry/--live, trace, stats."""

import json

import pytest

from repro.cli.main import main
from repro.core.artifacts import load_front, load_manifest, telemetry_artifacts
from repro.obs import load_telemetry


def _solve_with_telemetry(tmp_path, capsys, extra=()):
    code = main(
        [
            "solve", "zdt1", "--algorithm", "nsga2",
            "--generations", "3", "--population", "8", "--seed", "5",
            "--telemetry", "--output-dir", str(tmp_path), "--quiet", *extra,
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    run_dirs = list((tmp_path / "solve-zdt1").iterdir())
    assert len(run_dirs) == 1
    return run_dirs[0], captured


class TestSolveTelemetry:
    def test_telemetry_records_a_complete_run_directory(self, tmp_path, capsys):
        run_dir, captured = _solve_with_telemetry(tmp_path, capsys)
        assert "artifacts: %s" % run_dir in captured.out
        assert telemetry_artifacts(run_dir) == ["trace.jsonl", "timeseries.csv"]
        assert not (run_dir / "metrics.json").exists()
        manifest = load_manifest(run_dir)
        assert manifest.experiment == "solve"
        assert manifest.parameters["problem"] == "zdt1"
        assert set(manifest.artifacts) >= {
            "front.json", "front.csv", "ledger.json", "trace.jsonl", "timeseries.csv",
        }
        assert "metrics.json" not in manifest.artifacts
        assert len(load_front(run_dir)) >= 1

    def test_artifact_loaders_read_the_telemetry_kinds(self, tmp_path, capsys):
        run_dir, _ = _solve_with_telemetry(tmp_path, capsys)
        data = load_telemetry(run_dir)
        assert any(span["name"] == "solve.run" for span in data.spans)
        assert [row["generation"] for row in data.timeseries] == [1, 2, 3]
        assert data.ledger["total_evaluations"] == data.timeseries[-1]["evaluations"]

    def test_telemetry_dir_appends_across_invocations(self, tmp_path, capsys):
        target = tmp_path / "record"
        for _ in range(2):
            code = main(
                [
                    "solve", "zdt1", "--algorithm", "nsga2",
                    "--generations", "2", "--population", "8", "--seed", "5",
                    "--telemetry-dir", str(target), "--quiet",
                ]
            )
            capsys.readouterr()
            assert code == 0
        # The second invocation replays generations 1-2 into the same record;
        # the summary and the convergence table both read 2 generations.
        assert main(["stats", str(target), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["run"]["generation"] == 2
        assert main(["stats", str(target)]) == 0
        out = capsys.readouterr().out
        assert "convergence (2 of 2 generations):" in out
        assert "generation         2" in out

    def test_live_renders_progress_lines(self, tmp_path, capsys):
        code = main(
            [
                "solve", "zdt1", "--algorithm", "nsga2",
                "--generations", "2", "--population", "8", "--seed", "5",
                "--live", "--quiet",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        lines = [line for line in captured.out.splitlines() if "evals" in line]
        assert len(lines) == 2

    def test_solve_without_telemetry_writes_no_run_dir(self, tmp_path, capsys):
        code = main(
            [
                "solve", "zdt1", "--algorithm", "nsga2",
                "--generations", "2", "--population", "8", "--seed", "5",
                "--output-dir", str(tmp_path), "--quiet",
            ]
        )
        capsys.readouterr()
        assert code == 0
        assert list(tmp_path.iterdir()) == []


class TestTraceCommand:
    def test_renders_aggregate_and_slowest_tables(self, tmp_path, capsys):
        run_dir, _ = _solve_with_telemetry(tmp_path, capsys)
        code = main(["trace", str(run_dir)])
        captured = capsys.readouterr()
        assert code == 0
        assert "solve.run" in captured.out
        assert "solve.generation" in captured.out
        assert "slowest spans:" in captured.out
        assert "share" in captured.out

    def test_json_output_carries_the_aggregation(self, tmp_path, capsys):
        run_dir, _ = _solve_with_telemetry(tmp_path, capsys)
        code = main(["trace", str(run_dir), "--json", "--top", "2"])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["spans"] == len(load_telemetry(run_dir).spans)
        names = {entry["name"] for entry in payload["by_name"]}
        assert "solve.generation" in names
        assert len(payload["slowest"]) == 2

    def test_missing_trace_exits_with_a_readable_error(self, tmp_path, capsys):
        code = main(["trace", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "trace.jsonl" in captured.err


class TestStatsCommand:
    def test_renders_metric_tables_and_convergence(self, tmp_path, capsys):
        run_dir, _ = _solve_with_telemetry(tmp_path, capsys)
        code = main(["stats", str(run_dir)])
        captured = capsys.readouterr()
        assert code == 0
        assert "run:" in captured.out
        for label in ("generation", "evaluations", "front size", "wall s",
                      "evaluations/s"):
            assert label in captured.out
        assert "counters:" not in captured.out
        assert "convergence" in captured.out
        assert "hypervolume" in captured.out

    def test_series_limit_downsamples(self, tmp_path, capsys):
        run_dir, _ = _solve_with_telemetry(tmp_path, capsys)
        code = main(["stats", str(run_dir), "--series", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "convergence (2 of 3 generations):" in captured.out

    def test_json_output_round_trips(self, tmp_path, capsys):
        run_dir, _ = _solve_with_telemetry(tmp_path, capsys)
        code = main(["stats", str(run_dir), "--json"])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert "metrics" not in payload
        run, last = payload["run"], payload["timeseries"][-1]
        assert run["generation"] == last["generation"] == 3
        assert run["evaluations"] == last["evaluations"]
        assert run["hypervolume"] == last["hypervolume"]
        assert len(payload["timeseries"]) == 3
        # wall_s is the root-span total `repro trace` reports.
        assert main(["trace", str(run_dir), "--json"]) == 0
        assert run["wall_s"] == json.loads(capsys.readouterr().out)["wall"]
        assert run["evaluations_per_s"] == run["evaluations"] / run["wall_s"]

    def test_missing_telemetry_exits_with_a_readable_error(self, tmp_path, capsys):
        code = main(["stats", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "telemetry" in captured.err

    def test_cache_section_appears_for_cached_runs(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        run_dir, _ = _solve_with_telemetry(
            tmp_path, capsys, extra=["--cache-dir", cache]
        )
        code = main(["stats", str(run_dir)])
        captured = capsys.readouterr()
        assert code == 0
        assert "cache:" in captured.out
        assert "memory" in captured.out
        assert "disk" in captured.out
        assert "hit rate" in captured.out

    def test_cache_section_is_absent_without_caching(self, tmp_path, capsys):
        run_dir, _ = _solve_with_telemetry(tmp_path, capsys)
        code = main(["stats", str(run_dir)])
        captured = capsys.readouterr()
        assert code == 0
        assert "cache:" not in captured.out


class TestConstantParity:
    def test_artifact_layer_names_match_the_telemetry_constants(self):
        """core.artifacts keeps literal copies to avoid importing the solve
        stack; this pins the two sets of constants together."""
        from repro.core import artifacts
        from repro.obs import telemetry

        assert artifacts._TRACE_NAME == telemetry.TRACE_NAME
        assert artifacts._LEDGER_NAME == telemetry._LEDGER_NAME
        assert artifacts._TIMESERIES_NAME == telemetry.TIMESERIES_NAME
