"""Tests for warm-starting solves from recorded fronts.

Contracts under test:

* a warm-started solve is bitwise deterministic in its seed — re-running it
  reproduces the same front;
* the recorded front actually seeds the initial population (plus sampled
  top-up when the front is smaller than the population);
* incompatible sources — wrong decision width, different design space,
  missing decisions — are rejected with :class:`ConfigurationError` instead
  of silently seeding a foreign population;
* engines without initial-population support reject cleanly, and warm-start
  defers to a restored checkpoint.
"""

import json

import numpy as np
import pytest

from repro.core.artifacts import dumps_json, front_payload, record_solve_run
from repro.exceptions import ConfigurationError
from repro.moo.individual import Individual, Population
from repro.problems import build_problem
from repro.solve import load_warm_population, solve


def _record_run(tmp_path, problem, seed=7, generations=4, name="source"):
    run_dir = tmp_path / name
    run_dir.mkdir()
    result = solve(
        problem, algorithm="nsga2", seed=seed, termination=generations,
        population_size=12,
    )
    record_solve_run(
        run_dir, problem, result, parameters={"problem": problem.name, "seed": seed}
    )
    return run_dir, result


def _front_text(result, problem):
    return dumps_json(
        front_payload(
            result.front_objectives(),
            result.front_decisions(),
            objective_names=problem.objective_names,
            objective_senses=problem.objective_senses,
            label=result.algorithm,
        )
    )


class TestLoadWarmPopulation:
    def test_rehydrates_the_recorded_front(self, tmp_path):
        problem = build_problem("zdt1?n_var=5")
        run_dir, result = _record_run(tmp_path, problem)
        population = load_warm_population(run_dir, problem)
        assert len(population) == len(result.front_decisions())
        recorded = np.asarray(result.front_decisions(), dtype=float)
        hydrated = np.vstack([individual.x for individual in population])
        assert hydrated.tobytes() == recorded.tobytes()

    def test_population_size_caps_the_seeded_rows(self, tmp_path):
        problem = build_problem("zdt1?n_var=5")
        run_dir, result = _record_run(tmp_path, problem)
        assert len(result.front_decisions()) > 3
        population = load_warm_population(run_dir, problem, population_size=3)
        assert len(population) == 3

    def test_accepts_a_direct_front_json_path(self, tmp_path):
        problem = build_problem("zdt1?n_var=5")
        run_dir, _ = _record_run(tmp_path, problem)
        population = load_warm_population(run_dir / "front.json", problem)
        assert len(population) > 0

    def test_missing_source_is_rejected(self, tmp_path):
        problem = build_problem("zdt1?n_var=5")
        with pytest.raises(ConfigurationError, match="does not exist"):
            load_warm_population(tmp_path / "nowhere", problem)

    def test_directory_without_front_is_rejected(self, tmp_path):
        problem = build_problem("zdt1?n_var=5")
        with pytest.raises(ConfigurationError, match="has no front.json"):
            load_warm_population(tmp_path, problem)

    def test_front_without_decisions_is_rejected(self, tmp_path):
        problem = build_problem("zdt1?n_var=5")
        front = tmp_path / "front.json"
        front.write_text(
            json.dumps({"objectives": [[0.1, 0.9]], "n_points": 1}), encoding="utf-8"
        )
        with pytest.raises(ConfigurationError, match="no decision vectors"):
            load_warm_population(front, problem)

    def test_decision_width_mismatch_is_rejected(self, tmp_path):
        source_problem = build_problem("zdt1?n_var=5")
        run_dir, _ = _record_run(tmp_path, source_problem)
        target = build_problem("zdt1?n_var=8")
        with pytest.raises(ConfigurationError, match="decision"):
            load_warm_population(run_dir, target)

    def test_design_space_mismatch_is_rejected(self, tmp_path):
        problem = build_problem("zdt1?n_var=5")
        run_dir, _ = _record_run(tmp_path, problem)
        manifest_path = run_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert manifest.get("design_space") is not None
        # a recorded run of the same width but different bounds
        for variable in manifest["design_space"]["variables"]:
            variable["upper"] = variable["upper"] + 1.0
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ConfigurationError, match="different design space"):
            load_warm_population(run_dir, problem)


class TestWarmStartedSolve:
    def test_warm_started_solve_is_deterministic(self, tmp_path):
        problem = build_problem("zdt1?n_var=5")
        run_dir, _ = _record_run(tmp_path, problem)
        kwargs = dict(
            algorithm="nsga2", seed=11, termination=4, population_size=12,
            warm_start=str(run_dir),
        )
        first = solve(problem, **kwargs)
        second = solve(problem, **kwargs)
        assert _front_text(first, problem) == _front_text(second, problem)

    def test_warm_start_differs_from_cold_start(self, tmp_path):
        problem = build_problem("zdt1?n_var=5")
        run_dir, _ = _record_run(tmp_path, problem)
        warm = solve(problem, algorithm="nsga2", seed=11, termination=2,
                     population_size=12, warm_start=str(run_dir))
        cold = solve(problem, algorithm="nsga2", seed=11, termination=2,
                     population_size=12)
        assert _front_text(warm, problem) != _front_text(cold, problem)

    def test_conflicts_with_initial_population(self, tmp_path):
        problem = build_problem("zdt1?n_var=5")
        run_dir, _ = _record_run(tmp_path, problem)
        population = Population(
            [Individual(problem.random_solution(np.random.default_rng(0)))]
        )
        with pytest.raises(ConfigurationError, match="not both"):
            solve(problem, algorithm="nsga2", termination=2,
                  warm_start=str(run_dir), initial_population=population)

    def test_solver_without_population_support_rejects(self, tmp_path):
        problem = build_problem("zdt1?n_var=5")
        run_dir, _ = _record_run(tmp_path, problem)
        with pytest.raises(ConfigurationError, match="initial population"):
            solve(problem, algorithm="moead", termination=2,
                  warm_start=str(run_dir))

    def test_restored_checkpoint_wins_over_warm_start(self, tmp_path):
        problem = build_problem("zdt1?n_var=5")
        run_dir, _ = _record_run(tmp_path, problem)
        checkpoint_dir = tmp_path / "checkpoints"
        baseline = solve(
            problem, algorithm="nsga2", seed=11, termination=4,
            population_size=12, checkpoint_dir=str(checkpoint_dir),
            checkpoint_interval=2,
        )
        # resuming a finished run with warm_start must replay the checkpoint,
        # not re-seed: the result matches the uninterrupted run bitwise
        resumed = solve(
            problem, algorithm="nsga2", seed=11, termination=4,
            population_size=12, checkpoint_dir=str(checkpoint_dir),
            checkpoint_interval=2, warm_start=str(run_dir),
        )
        assert _front_text(resumed, problem) == _front_text(baseline, problem)

    def test_small_front_is_topped_up_to_population_size(self, tmp_path):
        problem = build_problem("zdt1?n_var=5")
        run_dir, _ = _record_run(tmp_path, problem)
        payload = json.loads((run_dir / "front.json").read_text(encoding="utf-8"))
        payload["decisions"] = payload["decisions"][:2]
        payload["objectives"] = payload["objectives"][:2]
        payload["n_points"] = 2
        (run_dir / "front.json").write_text(json.dumps(payload), encoding="utf-8")
        result = solve(problem, algorithm="nsga2", seed=11, termination=1,
                       population_size=12, warm_start=str(run_dir))
        assert len(result.population) == 12
