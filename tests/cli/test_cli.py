"""Smoke tests of the ``python -m repro`` command-line interface.

Every registered experiment runs at a toy budget through the real CLI entry
point (``repro.cli.main.main`` called in-process), and the resulting artifact
directories are checked for a manifest and a loadable, metrics-ready front.
The determinism and resume contracts of the artifact layer are asserted
bitwise, exactly as the acceptance criteria demand.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.cli.main import main
from repro.core.artifacts import (
    dumps_json,
    front_payload,
    individuals_from_front,
    load_front,
    load_front_payload,
    load_manifest,
    load_result,
)
from repro.core.registry import experiment_names, get_experiment
from repro.moo.metrics import hypervolume

def _recorded_runs(base, experiment="*"):
    """Run directories under ``base``, oldest first (a run has a manifest)."""
    return [path.parent for path in sorted(Path(base).glob("%s/*/manifest.json" % experiment))]


#: Toy budgets per experiment: fast enough for CI, big enough to be real runs.
TOY_BUDGETS = {
    "photosynthesis-table1": ["--population", "8", "--generations", "3"],
    "photosynthesis-table2": [
        "--population", "8", "--generations", "3",
        "--robustness-trials", "5", "--surface-points", "3",
    ],
    "photosynthesis-figure1": ["--population", "8", "--generations", "3"],
    "photosynthesis-figure2": ["--population", "8", "--generations", "3"],
    "photosynthesis-figure3": [
        "--population", "8", "--generations", "3",
        "--surface-points", "3", "--robustness-trials", "5",
    ],
    "geobacter-figure4": [
        "--population", "8", "--generations", "2", "--n-seeds", "4",
    ],
    "migration-ablation": ["--population", "8", "--generations", "3"],
}


def _write_unrestorable_checkpoints(directory):
    """Files named like checkpoints that no restore would load."""
    directory.mkdir(parents=True, exist_ok=True)
    for name in ("checkpoint-final.pkl", "checkpoint-7.pkl"):
        (directory / name).write_bytes(b"x")


def _run(args, capsys=None):
    code = main(args)
    if capsys is not None:
        return code, capsys.readouterr()
    return code


class TestListDescribe:
    def test_list_shows_every_experiment(self, capsys):
        code, captured = _run(["list"], capsys)
        assert code == 0
        for name in experiment_names():
            assert name in captured.out

    def test_list_json(self, capsys):
        import json

        code, captured = _run(["list", "--json"], capsys)
        assert code == 0
        payload = json.loads(captured.out)
        assert set(experiment_names()) <= set(payload)
        assert payload["photosynthesis-table2"]["supports_checkpoint"] is True

    def test_describe_shows_schema_flags(self, capsys):
        code, captured = _run(["describe", "photosynthesis-figure3"], capsys)
        assert code == 0
        for flag in ("--population", "--generations", "--seed", "--n-workers",
                     "--cache", "--checkpoint-dir"):
            assert flag in captured.out


@pytest.mark.parametrize("name", sorted(TOY_BUDGETS))
def test_run_produces_manifest_and_loadable_front(name, tmp_path, capsys):
    budget = TOY_BUDGETS[name]
    code = main(
        ["run", name, "--seed", "0", "--output-dir", str(tmp_path), "--quiet"] + budget
    )
    captured = capsys.readouterr()
    assert code == 0, captured.err
    (run_dir,) = _recorded_runs(tmp_path, experiment=name)
    manifest = load_manifest(run_dir)
    assert manifest.experiment == name
    assert manifest.parameters["seed"] == 0
    assert manifest.parameters["population"] == 8
    individuals = load_front(run_dir)
    assert individuals, "every experiment must record a non-empty front"
    matrix = np.vstack([individual.objectives for individual in individuals])
    assert np.all(np.isfinite(matrix))
    assert hypervolume(matrix) >= 0.0
    assert load_result(run_dir)  # experiment-specific payload present


class TestDeterminism:
    def test_same_seed_twice_is_bitwise_identical(self, tmp_path):
        args = ["run", "migration-ablation", "--seed", "0", "--quiet",
                "--population", "8", "--generations", "3"]
        assert main(args + ["--output-dir", str(tmp_path / "a")]) == 0
        assert main(args + ["--output-dir", str(tmp_path / "b")]) == 0
        (first,) = _recorded_runs(tmp_path / "a")
        (second,) = _recorded_runs(tmp_path / "b")
        assert (first / "front.json").read_bytes() == (second / "front.json").read_bytes()
        assert (first / "front.csv").read_bytes() == (second / "front.csv").read_bytes()
        assert (first / "result.json").read_bytes() == (second / "result.json").read_bytes()


class TestResume:
    def test_resume_continues_a_killed_run_bitwise(self, tmp_path):
        # A run killed at generation 4 leaves its interval-2 checkpoints
        # behind; both budgets below scale to the same migration interval, so
        # the checkpointed state matches the uninterrupted run's state.
        common = ["photosynthesis-figure3", "--population", "8", "--seed", "1",
                  "--surface-points", "3", "--robustness-trials", "5"]
        checkpoint = str(tmp_path / "checkpoints")
        assert main(
            ["run"] + common + ["--generations", "4", "--checkpoint-dir", checkpoint,
             "--checkpoint-interval", "2", "--no-artifacts", "--quiet"]
        ) == 0
        assert main(
            ["resume"] + common + ["--generations", "5", "--checkpoint-dir", checkpoint,
             "--checkpoint-interval", "2", "--output-dir", str(tmp_path / "resumed"),
             "--quiet"]
        ) == 0
        assert main(
            ["run"] + common + ["--generations", "5",
             "--output-dir", str(tmp_path / "fresh"), "--quiet"]
        ) == 0
        (resumed,) = _recorded_runs(tmp_path / "resumed")
        (fresh,) = _recorded_runs(tmp_path / "fresh")
        assert (resumed / "front.json").read_bytes() == (fresh / "front.json").read_bytes()

    def test_run_refuses_stale_checkpoint_directory(self, tmp_path, capsys):
        # `run` must never silently restore another run's checkpoints; only
        # `resume` continues from existing state.
        checkpoint = tmp_path / "checkpoints"
        common = ["photosynthesis-figure3", "--population", "8", "--seed", "0",
                  "--generations", "4", "--surface-points", "3",
                  "--robustness-trials", "5", "--checkpoint-dir", str(checkpoint),
                  "--checkpoint-interval", "2", "--no-artifacts", "--quiet"]
        assert main(["run"] + common) == 0
        capsys.readouterr()
        assert main(["run"] + common) == 2
        assert "already holds" in capsys.readouterr().err

    def test_resume_requires_checkpoint_support(self, tmp_path, capsys):
        code = main(["resume", "photosynthesis-table1", "--checkpoint-dir",
                     str(tmp_path)])
        assert code == 2
        assert "does not support checkpointing" in capsys.readouterr().err

    def test_resume_requires_checkpoint_dir(self, capsys):
        code = main(["resume", "photosynthesis-figure3"])
        assert code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_resume_refuses_empty_checkpoint_directory(self, tmp_path, capsys):
        # A mistyped/cleaned path must not silently recompute from scratch
        # while claiming to have resumed.
        code = main(["resume", "photosynthesis-figure3", "--checkpoint-dir",
                     str(tmp_path / "empty")])
        assert code == 2
        assert "no checkpoints" in capsys.readouterr().err

    def test_resume_refuses_directory_without_restorable_checkpoints(
        self, tmp_path, capsys
    ):
        # Names a restore ignores must not pass for checkpoints: the resume
        # would recompute from generation 0.
        _write_unrestorable_checkpoints(tmp_path)
        code = main(["resume", "photosynthesis-figure3", "--checkpoint-dir",
                     str(tmp_path)])
        assert code == 2
        assert "no checkpoints" in capsys.readouterr().err

    def test_run_accepts_directory_without_restorable_checkpoints(self, tmp_path, capsys):
        _write_unrestorable_checkpoints(tmp_path)
        assert main(
            ["run", "photosynthesis-figure3", "--population", "8", "--seed", "0",
             "--generations", "2", "--surface-points", "3",
             "--robustness-trials", "5", "--checkpoint-dir", str(tmp_path),
             "--no-artifacts", "--quiet"]
        ) == 0
        assert "already holds" not in capsys.readouterr().err


class TestExport:
    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("export-runs")
        assert main(["run", "migration-ablation", "--seed", "0", "--quiet",
                     "--population", "8", "--generations", "3",
                     "--output-dir", str(base)]) == 0
        (run_dir,) = _recorded_runs(base)
        return run_dir

    def test_export_front_round_trips_bitwise(self, run_dir, capsys):
        import json

        code = main(["export", str(run_dir), "--check"])
        captured = capsys.readouterr()
        assert code == 0
        # Status on stderr, clean JSON on stdout — `--check` composes with jq.
        assert "round-trip check OK" in captured.err
        assert json.loads(captured.out)["n_points"] >= 1
        # Independent round trip: JSON -> Individuals -> JSON, byte for byte.
        payload = load_front_payload(run_dir)
        individuals = individuals_from_front(payload)
        rebuilt = front_payload(
            np.vstack([individual.objectives for individual in individuals]),
            np.vstack([individual.x for individual in individuals]),
            objective_names=payload.get("objective_names"),
            objective_senses=payload.get("objective_senses"),
            label=payload.get("label"),
        )
        assert dumps_json(rebuilt) == dumps_json(payload)

    def test_export_front_to_csv_file(self, run_dir, tmp_path, capsys):
        target = tmp_path / "front.csv"
        assert main(["export", str(run_dir), "--format", "csv",
                     "--output", str(target)]) == 0
        capsys.readouterr()
        assert target.read_text().startswith("co2_uptake,nitrogen,x1")

    def test_export_result_and_manifest(self, run_dir, capsys):
        import json

        assert main(["export", str(run_dir), "--what", "result"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "hypervolume_with_migration" in payload
        assert main(["export", str(run_dir), "--what", "manifest"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["experiment"] == "migration-ablation"

    def test_export_missing_run_dir_fails_cleanly(self, tmp_path, capsys):
        assert main(["export", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_export_check_rejected_for_non_front_artifacts(self, run_dir, capsys):
        # --check verifies fronts only; silently "passing" on result/manifest
        # would be a false green for CI scripts.
        assert main(["export", str(run_dir), "--what", "result", "--check"]) == 2
        assert "--check only applies" in capsys.readouterr().err


class TestExportFrontInfo:
    """Figure 3's ``front.json`` carries one ``info`` entry per point."""

    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("figure3-runs")
        assert main(["run", "photosynthesis-figure3", "--seed", "0", "--quiet",
                     "--output-dir", str(base)] + TOY_BUDGETS["photosynthesis-figure3"]) == 0
        (run_dir,) = _recorded_runs(base)
        return run_dir

    def test_check_carries_the_info_list_through(self, run_dir, capsys):
        payload = load_front_payload(run_dir)
        assert len(payload["info"]) == payload["n_points"] >= 1
        assert main(["export", str(run_dir), "--check"]) == 0
        assert "round-trip check OK" in capsys.readouterr().err

    def test_check_refuses_an_info_list_one_entry_short(self, run_dir, tmp_path, capsys):
        import json
        import shutil

        tampered = tmp_path / "tampered"
        shutil.copytree(run_dir, tampered)
        front = tampered / "front.json"
        payload = json.loads(front.read_text())
        payload["info"] = payload["info"][:-1]
        front.write_text(json.dumps(payload))
        assert main(["export", str(tampered), "--check"]) == 2
        assert "info and objectives disagree" in capsys.readouterr().err


class TestErrors:
    def test_unknown_experiment(self, capsys):
        assert main(["run", "no-such-experiment"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["run", "migration-ablation", "--budget", "3"]) == 2
        assert "unknown flag" in capsys.readouterr().err

    def test_describe_unknown_experiment(self, capsys):
        assert main(["describe", "no-such-experiment"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["photosynthesis-table2", "photosynthesis-figure3"])
    def test_zero_robustness_trials_is_a_one_line_error(self, name, tmp_path, capsys):
        code = main(["run", name, "--robustness-trials", "0", "--population", "8",
                     "--generations", "3", "--output-dir", str(tmp_path), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "global_trials must be at least 1" in err


class TestSolve:
    """The generic `repro solve <problem> --algorithm <name>` command."""

    BUDGET = ["--generations", "3", "--population", "8", "--seed", "0"]

    @pytest.mark.parametrize("algorithm", ["nsga2", "moead", "pmo2"])
    def test_every_algorithm_succeeds(self, algorithm, capsys):
        code, captured = main(["solve", "zdt1", "--algorithm", algorithm] + self.BUDGET), capsys.readouterr()
        assert code == 0
        assert algorithm in captured.out
        assert "front size" in captured.out

    def test_default_algorithm_is_pmo2(self, capsys):
        assert main(["solve", "schaffer"] + self.BUDGET) == 0
        assert "pmo2" in capsys.readouterr().out

    def test_stream_prints_generation_events(self, capsys):
        code = main(
            ["solve", "zdt1", "--algorithm", "nsga2", "--stream"] + self.BUDGET
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("generation") >= 3

    def test_front_json_round_trips(self, tmp_path, capsys):
        target = tmp_path / "front.json"
        code = main(
            ["solve", "zdt1", "--algorithm", "nsga2", "--front-json", str(target)]
            + self.BUDGET
        )
        assert code == 0
        import json

        payload = json.loads(target.read_text(encoding="utf-8"))
        individuals = individuals_from_front(payload)
        assert len(individuals) == payload["n_points"] > 0
        assert payload["label"] == "nsga2"

    def test_max_evaluations_bounds_the_run(self, capsys):
        code = main(
            ["solve", "zdt1", "--algorithm", "nsga2", "--max-evaluations", "16",
             "--generations", "100", "--population", "8", "--seed", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "evaluations  16" in out

    def test_checkpoint_dir_resumes(self, tmp_path, capsys):
        args = ["solve", "zdt1", "--algorithm", "nsga2", "--population", "8",
                "--seed", "0", "--checkpoint-dir", str(tmp_path),
                "--checkpoint-interval", "2"]
        assert main(args + ["--generations", "4"]) == 0
        assert main(args + ["--generations", "6"]) == 0
        out = capsys.readouterr().out
        assert "generations  6" in out

    def test_truncated_checkpoint_is_a_clean_error(self, tmp_path, capsys):
        args = ["solve", "zdt1", "--algorithm", "nsga2", "--population", "8",
                "--seed", "0", "--checkpoint-dir", str(tmp_path),
                "--checkpoint-interval", "2"]
        assert main(args + ["--generations", "4"]) == 0
        capsys.readouterr()
        # Every checkpoint truncated: none is left to fall back on.
        for generation in (2, 4):
            (tmp_path / ("checkpoint-%08d.pkl" % generation)).write_bytes(b"\x80\x05trunc")
        assert main(args + ["--generations", "6"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read checkpoint")
        assert "checkpoint-00000004.pkl" in err and "Traceback" not in err

    def test_checkpoint_of_another_format_is_a_clean_error(self, tmp_path, capsys):
        import pickle

        args = ["solve", "zdt1", "--algorithm", "nsga2", "--population", "8",
                "--seed", "0", "--checkpoint-dir", str(tmp_path),
                "--checkpoint-interval", "2"]
        assert main(args + ["--generations", "4"]) == 0
        capsys.readouterr()
        from repro.runtime.checkpoint import CheckpointManager, _header

        path = tmp_path / "checkpoint-00000004.pkl"
        payload = CheckpointManager._read(path)
        payload["format_version"] = 1
        data = pickle.dumps(payload)
        path.write_bytes(_header(data) + data)
        assert main(args + ["--generations", "6"]) == 2
        assert "format version 1, expected 9" in capsys.readouterr().err

    def test_unknown_algorithm_is_a_clean_error(self, capsys):
        assert main(["solve", "zdt1", "--algorithm", "nsga3"]) == 2
        assert "unknown solver" in capsys.readouterr().err

    def test_unknown_problem_is_a_clean_error(self, capsys):
        assert main(["solve", "zdt99"]) == 2
        assert "unknown problem" in capsys.readouterr().err

    def test_negative_seed_is_a_clean_error(self, capsys):
        assert main(["solve", "zdt1", "--algorithm", "nsga2", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be non-negative")
        assert "Traceback" not in err

    def test_budget_above_the_cap_is_a_clean_error(self, capsys):
        # 2 islands x 100 x (50,000 + 1) rows is above MAX_BUDGET_ROWS.
        args = ["solve", "zdt1", "--algorithm", "pmo2", "--population", "100",
                "--generations", "50000"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: row budget 10000200 ")
        assert err.count("\n") == 1 and "MAX_BUDGET_ROWS" in err

    def test_checkpoint_dir_refuses_a_different_solve_run(self, tmp_path, capsys):
        base = ["solve", "zdt1", "--algorithm", "nsga2", "--population", "8",
                "--generations", "4", "--checkpoint-dir", str(tmp_path),
                "--checkpoint-interval", "2"]
        assert main(base + ["--seed", "0"]) == 0
        capsys.readouterr()
        # Different problem/seed must not silently adopt the recorded state.
        assert main(["solve", "schaffer", "--algorithm", "nsga2",
                     "--population", "8", "--generations", "4", "--seed", "1",
                     "--checkpoint-dir", str(tmp_path)]) == 2
        assert "belongs to" in capsys.readouterr().err
        # The original parameters keep resuming fine.
        assert main(base + ["--seed", "0"]) == 0

    def test_checkpoint_dir_refuses_foreign_checkpoints(self, tmp_path, capsys):
        (tmp_path / "checkpoint-00000004.pkl").write_bytes(b"not-a-solve-run")
        assert main(["solve", "zdt1", "--algorithm", "nsga2", "--population",
                     "8", "--generations", "4", "--seed", "0",
                     "--checkpoint-dir", str(tmp_path)]) == 2
        assert "solve.json" in capsys.readouterr().err

    def test_checkpoint_dir_accepts_unrestorable_names(self, tmp_path, capsys):
        _write_unrestorable_checkpoints(tmp_path)
        assert main(["solve", "zdt1", "--algorithm", "nsga2", "--population",
                     "8", "--generations", "2", "--seed", "0",
                     "--checkpoint-dir", str(tmp_path)]) == 0
        assert (tmp_path / "solve.json").is_file()


class TestSolveCacheDir:
    """`repro solve --cache-dir` and the `repro cache` maintenance command."""

    BASE = ["solve", "zdt1", "--algorithm", "nsga2", "--generations", "3",
            "--population", "8", "--seed", "0"]

    def test_cached_front_is_bitwise_identical(self, tmp_path, capsys):
        plain = tmp_path / "plain.json"
        cold = tmp_path / "cold.json"
        warm = tmp_path / "warm.json"
        cache = str(tmp_path / "cache")
        assert main(self.BASE + ["--front-json", str(plain)]) == 0
        assert main(self.BASE + ["--cache-dir", cache, "--front-json", str(cold)]) == 0
        assert main(self.BASE + ["--cache-dir", cache, "--front-json", str(warm)]) == 0
        capsys.readouterr()
        reference = plain.read_text(encoding="utf-8")
        assert cold.read_text(encoding="utf-8") == reference
        assert warm.read_text(encoding="utf-8") == reference

    def test_warm_run_reports_its_disk_hit_rate(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(self.BASE + ["--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(self.BASE + ["--cache-dir", cache]) == 0
        assert "disk hit rate: 100.0 %" in capsys.readouterr().out

    def test_cache_stats_gc_and_clear(self, tmp_path, capsys):
        import json

        cache = str(tmp_path / "cache")
        assert main(self.BASE + ["--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", cache, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] > 0
        assert main(["cache", "gc", cache, "--max-entries", "5"]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "clear", cache]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", cache, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_cache_stats_on_missing_store_is_a_clean_error(self, tmp_path, capsys):
        assert main(["cache", "stats", str(tmp_path / "nowhere")]) == 2
        assert "no evaluation cache" in capsys.readouterr().err

    def test_cache_gc_without_a_bound_is_a_clean_error(self, tmp_path, capsys):
        assert main(["cache", "clear", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["cache", "gc", str(tmp_path)]) == 2
        assert "needs a bound" in capsys.readouterr().err

    def test_warm_start_resumes_from_a_recorded_run(self, tmp_path, capsys):
        run_dir = tmp_path / "run1"
        assert main(self.BASE + ["--telemetry-dir", str(run_dir)]) == 0
        capsys.readouterr()
        assert main(self.BASE + ["--warm-start", str(run_dir)]) == 0
        assert "front size" in capsys.readouterr().out

    def test_warm_start_is_pinned_by_the_checkpoint_guard(self, tmp_path, capsys):
        run_dir = tmp_path / "run1"
        assert main(self.BASE + ["--telemetry-dir", str(run_dir)]) == 0
        ckpt = str(tmp_path / "ckpt")
        warm = self.BASE + ["--warm-start", str(run_dir), "--checkpoint-dir",
                            ckpt, "--checkpoint-interval", "2"]
        assert main(warm) == 0
        capsys.readouterr()
        # Same parameters without warm-start must not adopt the state.
        assert main(self.BASE + ["--checkpoint-dir", ckpt]) == 2
        assert "belongs to" in capsys.readouterr().err
        assert main(warm) == 0


class TestProblemRegistryCli:
    """`repro solve --list-problems`, describe-problem and spec strings."""

    BUDGET = ["--generations", "2", "--population", "8", "--seed", "0"]

    def test_list_problems_renders_the_registry(self, capsys):
        from repro.problems import problem_names

        assert main(["solve", "--list-problems"]) == 0
        out = capsys.readouterr().out
        for name in problem_names():
            assert name in out
        assert "transform keys" in out

    def test_solve_requires_a_problem_without_list_flag(self, capsys):
        assert main(["solve"]) == 2
        assert "--list-problems" in capsys.readouterr().err

    def test_describe_problem_renders_space_and_schemas(self, capsys):
        assert main(["describe-problem", "zdt6"]) == 0
        out = capsys.readouterr().out
        assert "design space (10 variables)" in out
        assert "n_var" in out and "noise" in out
        assert "repro solve" in out

    def test_describe_problem_json(self, capsys):
        import json

        assert main(["describe-problem", "schaffer", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "schaffer"
        assert payload["space"]["variables"][0]["kind"] == "continuous"

    def test_describe_problem_unknown_is_a_clean_error(self, capsys):
        assert main(["describe-problem", "zdt99"]) == 2
        assert "unknown problem" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec",
        [
            "zdt1?n_var=8",
            "zdt1?noise=0.01",
            "zdt1?normalized=1",
            "bnh?penalty=100",
            "dtlz2?objectives=0,1",
        ],
    )
    def test_spec_strings_solve_end_to_end(self, spec, capsys):
        assert main(["solve", spec, "--algorithm", "nsga2"] + self.BUDGET) == 0
        assert "front size" in capsys.readouterr().out

    def test_bad_spec_parameter_is_a_clean_error(self, capsys):
        assert main(["solve", "zdt1?n_vars=8"] + self.BUDGET) == 2
        assert "unknown parameter" in capsys.readouterr().err

    def test_plain_problem_digest_unchanged_by_spec_machinery(self, tmp_path):
        # `zdt1` and `zdt1?n_var=30` are the same problem; their fronts must
        # be bitwise identical through the registry path.
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["solve", "zdt1", "--algorithm", "nsga2",
                     "--front-json", str(a)] + self.BUDGET) == 0
        assert main(["solve", "zdt1?n_var=30", "--algorithm", "nsga2",
                     "--front-json", str(b)] + self.BUDGET) == 0
        assert a.read_bytes() == b.read_bytes()
