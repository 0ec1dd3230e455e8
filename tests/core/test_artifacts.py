"""Tests of the run-artifact layer (repro.core.artifacts)."""

import json

import numpy as np
import pytest

from repro.core.artifacts import (
    RunManifest,
    create_run_dir,
    dumps_json,
    front_payload,
    individuals_from_front,
    load_front,
    load_front_payload,
    load_json,
    load_manifest,
    load_result,
    record_run,
    write_front_csv,
    write_json,
)
from repro.core.registry import Experiment, Parameter
from repro.exceptions import ConfigurationError
from repro.moo.archive import ParetoArchive
from repro.moo.metrics import hypervolume


class TestFrontPayload:
    def test_round_trip_through_individuals_is_bitwise(self):
        objectives = np.array([[1.0, 2.5], [0.25, 3.125]])
        decisions = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        payload = front_payload(
            objectives,
            decisions,
            objective_names=["f1", "f2"],
            objective_senses=[-1, 1],
            label="demo",
            info=[{"yield_percentage": 50.0}, {"yield_percentage": 75.0}],
        )
        individuals = individuals_from_front(payload)
        rebuilt = front_payload(
            np.vstack([i.objectives for i in individuals]),
            np.vstack([i.x for i in individuals]),
            objective_names=payload["objective_names"],
            objective_senses=payload["objective_senses"],
            label=payload["label"],
            info=payload["info"],
        )
        assert dumps_json(rebuilt) == dumps_json(payload)

    def test_info_must_carry_one_entry_per_point(self):
        with pytest.raises(ConfigurationError, match="info and objectives"):
            front_payload(np.array([[1.0, 2.0], [3.0, 4.0]]), info=[{"yield_percentage": 1.0}])

    def test_decisions_are_optional(self):
        payload = front_payload(np.array([[1.0, 2.0]]))
        (individual,) = individuals_from_front(payload)
        assert individual.x.size == 0
        assert individual.objectives.tolist() == [1.0, 2.0]

    def test_rehydrated_front_feeds_the_metrics(self):
        payload = front_payload(np.array([[1.0, 3.0], [2.0, 1.0]]))
        matrix = np.vstack([i.objectives for i in individuals_from_front(payload)])
        assert hypervolume(matrix) > 0.0

    def test_rehydrated_front_builds_an_archive(self):
        payload = front_payload(
            np.array([[1.0, 3.0], [2.0, 1.0], [3.0, 4.0]]),
            np.array([[0.0], [1.0], [2.0]]),
        )
        archive = ParetoArchive.from_individuals(individuals_from_front(payload))
        # The third point is dominated and must be filtered on insertion.
        assert len(archive) == 2

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            front_payload(np.zeros(3))
        with pytest.raises(ConfigurationError):
            front_payload(np.zeros((2, 2)), np.zeros((3, 1)))

    def test_empty_front(self):
        assert individuals_from_front(front_payload(np.empty((0, 0)))) == []


class TestJsonDeterminism:
    def test_sorted_keys_and_stable_floats(self):
        first = dumps_json({"b": 0.1 + 0.2, "a": [1, 2]})
        second = dumps_json({"a": [1, 2], "b": 0.1 + 0.2})
        assert first == second
        assert "0.30000000000000004" in first

    def test_numpy_types_serialized(self):
        text = dumps_json({"x": np.float64(1.5), "n": np.int64(3), "a": np.arange(2)})
        assert json.loads(text) == {"a": [0, 1], "n": 3, "x": 1.5}


class TestCsv:
    def test_header_and_rows(self, tmp_path):
        payload = front_payload(
            np.array([[1.0, 2.0]]),
            np.array([[0.5, 0.25]]),
            objective_names=["uptake", "nitrogen"],
        )
        target = write_front_csv(tmp_path / "front.csv", payload)
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "uptake,nitrogen,x1,x2"
        assert lines[1] == "1.0,2.0,0.5,0.25"


def _stub_experiment():
    class StubResult:
        front_objectives = np.array([[1.0, 2.0]])
        front_decisions = np.array([[0.5]])
        ledger = None

    return (
        Experiment(
            name="stub",
            title="stub",
            description="",
            reference="",
            function=lambda seed=0: StubResult(),
            parameters=(Parameter("seed", int, 0, ""),),
            front=lambda result: front_payload(
                result.front_objectives, result.front_decisions
            ),
            payload=lambda result: {"points": 1},
        ),
        StubResult(),
    )


class TestRecordAndLoad:
    def test_record_run_writes_all_artifacts(self, tmp_path):
        experiment, result = _stub_experiment()
        run_dir = record_run(experiment, result, {"seed": 0}, base_dir=tmp_path)
        names = {path.name for path in run_dir.iterdir()}
        assert {"manifest.json", "front.json", "front.csv", "result.json"} <= names
        manifest = load_manifest(run_dir)
        assert manifest.experiment == "stub"
        assert manifest.parameters == {"seed": 0}
        assert manifest.package_version
        assert manifest.python_version
        assert "front.json" in manifest.artifacts
        assert load_result(run_dir) == {"points": 1}
        (individual,) = load_front(run_dir)
        assert individual.objectives.tolist() == [1.0, 2.0]

    def test_front_json_is_pure_of_the_result(self, tmp_path):
        experiment, result = _stub_experiment()
        first = record_run(experiment, result, {"seed": 0}, base_dir=tmp_path)
        second = record_run(experiment, result, {"seed": 0}, base_dir=tmp_path)
        assert first != second
        assert (first / "front.json").read_bytes() == (second / "front.json").read_bytes()

    def test_load_front_accepts_direct_file_path(self, tmp_path):
        experiment, result = _stub_experiment()
        run_dir = record_run(experiment, result, {"seed": 0}, base_dir=tmp_path)
        assert len(load_front(run_dir / "front.json")) == 1

    def test_missing_artifact_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_front_payload(tmp_path)

    def test_manifest_round_trip(self, tmp_path):
        manifest = RunManifest(experiment="demo", parameters={"seed": 3})
        write_json(tmp_path / "manifest.json", manifest.as_dict())
        loaded = load_manifest(tmp_path)
        assert loaded.experiment == "demo"
        assert loaded.parameters == {"seed": 3}

    def test_run_dir_collisions_get_suffixes(self, tmp_path):
        first = create_run_dir(tmp_path, "demo", seed=0)
        second = create_run_dir(tmp_path, "demo", seed=0)
        assert first.exists() and second.exists() and first != second

    def test_concurrent_run_dir_creation_never_collides(self, tmp_path):
        # Concurrent workers (the repro.serve pool) create run directories
        # for the same experiment/seed in the same second; every caller must
        # get a directory it exclusively owns.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=8) as pool:
            dirs = list(
                pool.map(lambda _: create_run_dir(tmp_path, "demo", seed=0), range(32))
            )
        assert len({str(d) for d in dirs}) == 32
        assert all(d.is_dir() for d in dirs)


class TestDesignSpaceInManifests:
    def test_result_design_space_round_trips_through_the_manifest(self, tmp_path):
        from repro.problems import build_problem

        experiment, result = _stub_experiment()
        problem = build_problem("zdt6?n_var=4")
        result.design_space = problem.design_space()
        run_dir = record_run(experiment, result, {"seed": 0}, base_dir=tmp_path)
        manifest = load_manifest(run_dir)
        assert manifest.design_space == problem.design_space()

    def test_solve_results_carry_the_space_into_the_manifest(self, tmp_path):
        from repro.core.registry import get_experiment

        experiment = get_experiment("migration-ablation")
        parameters = experiment.validate_parameters(
            {"population": 8, "generations": 3, "seed": 0}
        )
        result = experiment.function(**parameters)
        run_dir = record_run(experiment, result, parameters, base_dir=tmp_path)
        variables = load_manifest(run_dir).design_space["variables"]
        assert len(variables) == 23  # the 23 photosynthesis enzymes
        assert variables[0]["name"] != "x0"  # real enzyme names, not defaults
        assert {variable["kind"] for variable in variables} == {"continuous"}

    def test_results_without_a_space_record_none(self, tmp_path):
        experiment, result = _stub_experiment()
        run_dir = record_run(experiment, result, {"seed": 0}, base_dir=tmp_path)
        assert load_manifest(run_dir).design_space is None
        assert "design_space" not in load_json(run_dir / "manifest.json")


class TestGitRevision:
    @pytest.fixture
    def git_calls(self, monkeypatch):
        """Count ``subprocess.run`` calls, with the revision memo empty before and after."""
        import subprocess

        from repro.core import artifacts

        calls = []
        real_run = subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(artifacts.subprocess, "run", counting_run)
        artifacts._git_revision.cache_clear()
        yield calls
        artifacts._git_revision.cache_clear()

    def _record_twice(self, tmp_path):
        from repro.core.artifacts import record_solve_run
        from repro.problems import build_problem
        from repro.solve import solve

        problem = build_problem("zdt1")
        result = solve(problem, algorithm="nsga2", termination=2, seed=0)
        revisions = []
        for seed in (0, 1):
            run_dir = create_run_dir(tmp_path, "solve-zdt1", seed)
            record_solve_run(run_dir, problem, result, {"seed": seed})
            revisions.append(load_manifest(run_dir).git_revision)
        return revisions

    def test_two_recorded_runs_run_git_once(self, tmp_path, git_calls):
        first, second = self._record_twice(tmp_path)
        assert len(git_calls) == 1
        assert first == second
        assert first is None or (len(first) == 40 and int(first, 16) >= 0)

    def test_outside_a_checkout_the_manifest_records_none(
        self, tmp_path, git_calls, monkeypatch
    ):
        import subprocess

        from repro.core import artifacts

        def not_a_checkout(*args, **kwargs):
            git_calls.append(args)
            return subprocess.CompletedProcess(args, 128, stdout="", stderr="fatal")

        monkeypatch.setattr(artifacts.subprocess, "run", not_a_checkout)
        assert self._record_twice(tmp_path) == [None, None]
        assert len(git_calls) == 1
