"""End-to-end runtime tests: pooled determinism, engines, designer knobs."""

import numpy as np
import pytest

from repro.core.designer import RobustPathwayDesigner
from repro.exceptions import ConfigurationError
from repro.moo.archipelago import PMO2Config
from repro.moo.robustness import RobustnessSettings
from repro.moo.testproblems import ZDT1, Schaffer
from repro.runtime import ProcessPoolEvaluator, build_evaluator
from repro.solve import solve


def test_runtime_imports_standalone():
    """`import repro.runtime` must work as the first repro import of a process.

    The runtime layer sits below repro.moo; a module-level runtime -> moo
    import would create a cycle that only bites when repro.runtime is
    imported first, which in-process tests can never observe — hence the
    subprocess.
    """
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for entry in (
        "from repro.runtime import build_evaluator",
        "from repro.runtime.ledger import EvaluationLedger",
        "from repro.runtime.checkpoint import CheckpointManager",
    ):
        completed = subprocess.run(
            [sys.executable, "-c", entry], capture_output=True, text=True, env=env
        )
        assert completed.returncode == 0, completed.stderr


def _pmo2(problem, seed, generations, **kwargs):
    config = PMO2Config(island_population_size=8, migration_interval=3)
    return solve(problem, "pmo2", config=config, seed=seed, termination=generations, **kwargs)


class TestPooledDeterminism:
    def test_pmo2_pool_matches_serial_bitwise(self):
        problem = ZDT1(n_var=6)
        serial = _pmo2(problem, 11, 6)
        pooled = _pmo2(problem, 11, 6, n_workers=2)
        assert np.array_equal(serial.front_objectives(), pooled.front_objectives())
        assert np.array_equal(serial.front_decisions(), pooled.front_decisions())
        assert serial.evaluations == pooled.evaluations

    def test_pmo2_cache_matches_serial_bitwise(self):
        problem = ZDT1(n_var=6)
        serial = _pmo2(problem, 11, 6)
        cached = _pmo2(problem, 11, 6, cache=True)
        assert np.array_equal(serial.front_objectives(), cached.front_objectives())
        assert cached.ledger.total_cache_hits > 0

    def test_nsga2_pool_matches_serial_bitwise(self):
        problem = ZDT1(n_var=6)
        serial = solve(problem, "nsga2", population_size=8, seed=5, termination=6)
        with build_evaluator(n_workers=2) as evaluator:
            pooled = solve(problem, "nsga2", population_size=8, seed=5, termination=6,
                           evaluator=evaluator)
        assert np.array_equal(
            serial.archive.F, pooled.archive.F
        )

    def test_moead_pool_matches_serial_bitwise(self):
        problem = ZDT1(n_var=6)
        config = dict(population_size=8, neighborhood_size=4)
        serial = solve(problem, "moead", seed=5, termination=4, **config)
        with ProcessPoolEvaluator(n_workers=2) as evaluator:
            pooled = solve(problem, "moead", seed=5, termination=4, evaluator=evaluator,
                           **config)
        assert np.array_equal(
            serial.archive.F, pooled.archive.F
        )

    def test_pmo2_result_carries_ledger(self):
        result = _pmo2(Schaffer(), 1, 4)
        assert result.ledger is not None
        assert result.ledger.total_evaluations == result.evaluations
        assert result.ledger.phases["optimize"].wall_clock > 0.0


class TestDesignerKnobs:
    def _designer(self, **kwargs):
        return RobustPathwayDesigner(
            Schaffer(),
            PMO2Config(island_population_size=8, migration_interval=3),
            seed=4,
            **kwargs,
        )

    def test_design_report_carries_phased_ledger(self, tmp_path):
        designer = self._designer(checkpoint_dir=str(tmp_path), checkpoint_interval=2)
        report = designer.design(
            generations=4,
            property_objective="f1",
            robustness_settings=RobustnessSettings(epsilon=0.1, global_trials=20, seed=0),
        )
        assert report.ledger is not None
        assert report.ledger.phases["optimize"].evaluations > 0
        assert report.ledger.phases["robustness"].evaluations > 0
        assert any(path.name.startswith("checkpoint-") for path in tmp_path.iterdir())

    def test_parallel_designer_matches_serial(self):
        settings = RobustnessSettings(epsilon=0.1, global_trials=20, seed=0)
        serial = self._designer().design(generations=4, property_objective="f1",
                                         robustness_settings=settings)
        parallel = self._designer(n_workers=2).design(
            generations=4, property_objective="f1", robustness_settings=settings
        )
        assert np.array_equal(serial.front_objectives, parallel.front_objectives)
        for a, b in zip(serial.selections, parallel.selections):
            assert a.criterion == b.criterion
            assert a.yield_percentage == pytest.approx(b.yield_percentage)

    def test_robustness_budget_identity(self):
        trials, surface_points = 20, 3
        report = self._designer().design(
            generations=4,
            property_objective="f1",
            robustness_settings=RobustnessSettings(epsilon=0.1, global_trials=trials, seed=0),
            surface_points=surface_points,
        )
        # Closest-to-ideal plus one shadow minimum per objective are assessed;
        # the max-yield row reuses an assessed design.
        assessed = 1 + Schaffer().n_obj
        robustness = report.ledger.phases["robustness"]
        assert robustness.evaluations == (assessed + surface_points) * (trials + 1)
        assert report.ledger.total_evaluations == (
            report.optimizer_result.evaluations + robustness.evaluations
        )

    def test_cached_trials_give_the_same_yields(self):
        settings = RobustnessSettings(epsilon=0.1, global_trials=20, seed=0)
        plain = self._designer().design(
            generations=4, property_objective="f1", robustness_settings=settings,
            surface_points=3,
        )
        cached = self._designer(cache=True).design(
            generations=4, property_objective="f1", robustness_settings=settings,
            surface_points=3,
        )
        assert [s.yield_percentage for s in plain.selections] == [
            s.yield_percentage for s in cached.selections
        ]
        assert plain.front_yields == cached.front_yields
        # Each selection's nominal row was evaluated by the optimizer already.
        assert cached.ledger.phases["robustness"].cache_hits >= 3

    def test_unknown_property_objective_fails_before_optimizing(self):
        designer = self._designer()
        with pytest.raises(ConfigurationError, match="co2_uptake"):
            designer.design(generations=4, property_objective="co2_uptake")
        assert designer.ledger.total_evaluations == 0

    def test_designer_resumes_from_checkpoint(self, tmp_path):
        settings = RobustnessSettings(epsilon=0.1, global_trials=20, seed=0)
        baseline = self._designer().design(
            generations=6, property_objective="f1", robustness_settings=settings
        )
        interrupted = self._designer(
            checkpoint_dir=str(tmp_path), checkpoint_interval=2
        )
        interrupted.optimize(generations=3)  # "killed" after 3 generations
        resumed = self._designer(
            checkpoint_dir=str(tmp_path), checkpoint_interval=2
        ).design(generations=6, property_objective="f1", robustness_settings=settings)
        assert np.array_equal(baseline.front_objectives, resumed.front_objectives)
        for a, b in zip(baseline.selections, resumed.selections):
            assert a.yield_percentage == pytest.approx(b.yield_percentage)
        # The trials land in the ledger restored with the optimizer state.
        assert resumed.ledger.total_evaluations == baseline.ledger.total_evaluations
        assert (
            resumed.ledger.phases["robustness"].evaluations
            == baseline.ledger.phases["robustness"].evaluations
        )
