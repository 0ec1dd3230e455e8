"""Tests for the MOEA/D optimizer."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.moo.metrics import inverted_generational_distance
from repro.moo.moead import MOEAD, MOEADConfig, uniform_weight_vectors
from repro.moo.testproblems import DTLZ2, Schaffer, ZDT1
from repro.solve import CallbackObserver, solve
from tests.helpers import solve_engine


class TestWeightVectors:
    def test_two_objective_weights_sum_to_one(self):
        weights = uniform_weight_vectors(2, 11)
        assert weights.shape == (11, 2)
        assert np.allclose(weights.sum(axis=1), 1.0)
        assert weights[0] == pytest.approx([0.0, 1.0])
        assert weights[-1] == pytest.approx([1.0, 0.0])

    def test_three_objective_weights_on_simplex(self):
        weights = uniform_weight_vectors(3, 15)
        assert weights.shape[0] == 15
        assert np.allclose(weights.sum(axis=1), 1.0)
        assert np.all(weights >= 0.0)

    def test_rejects_single_objective(self):
        with pytest.raises(ConfigurationError):
            uniform_weight_vectors(1, 10)

    def test_rejects_population_smaller_than_objectives(self):
        with pytest.raises(ConfigurationError):
            uniform_weight_vectors(3, 2)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 2},
            {"neighborhood_size": 1},
            {"neighborhood_size": 200, "population_size": 20},
            {"variation": "bogus"},
            {"neighborhood_selection_probability": 2.0},
            {"max_replacements": 0},
        ],
    )
    def test_invalid_configurations_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            MOEADConfig(**kwargs).validate()


def _moead(problem, generations, seed, **config):
    """``solve()`` MOEA/D on ``problem`` with the given config fields."""
    return solve(problem, "moead", seed=seed, termination=generations, **config)


class TestMOEADRun:
    def test_population_size_and_generations(self):
        result = _moead(Schaffer(), 5, 0, population_size=20, neighborhood_size=5)
        assert len(result.population) == 20
        assert result.generations == 5

    def test_evaluation_budget(self):
        result = _moead(Schaffer(), 5, 0, population_size=20, neighborhood_size=5)
        # Initialization + one offspring per sub-problem per generation.
        assert result.evaluations == 20 + 20 * 5

    def test_negative_generations_rejected(self):
        with pytest.raises(ConfigurationError):
            _moead(Schaffer(), -2, 0)

    def test_ideal_point_tracks_minimum(self):
        problem = Schaffer()
        optimizer = MOEAD(problem, MOEADConfig(population_size=16, neighborhood_size=4), seed=1)
        solve_engine(problem, optimizer, 5)
        matrix = optimizer.archive.objective_matrix()
        assert optimizer.ideal[0] <= matrix[:, 0].min() + 1e-9
        assert optimizer.ideal[1] <= matrix[:, 1].min() + 1e-9

    def test_converges_on_schaffer(self):
        problem = Schaffer()
        result = _moead(problem, 40, 2, population_size=30, neighborhood_size=8)
        igd = inverted_generational_distance(
            result.archive.objective_matrix(), problem.true_front()
        )
        assert igd < 0.3

    def test_sbx_variation_mode_runs(self):
        result = _moead(
            ZDT1(n_var=6), 3, 3, population_size=12, neighborhood_size=4, variation="sbx"
        )
        assert len(result.front) > 0

    def test_three_objective_problem_runs(self):
        result = _moead(DTLZ2(n_obj=3, n_var=7), 5, 4, population_size=21, neighborhood_size=5)
        assert result.archive.objective_matrix().shape[1] == 3

    def test_seed_reproducibility(self):
        fronts = [
            _moead(Schaffer(), 5, 11, population_size=12, neighborhood_size=4)
            .archive.objective_matrix()
            for _ in range(2)
        ]
        assert np.allclose(fronts[0], fronts[1])


class TestMOEADCheckpointParity:
    """MOEA/D has the same checkpoint/resume support as the other engines."""

    def test_run_accepts_checkpoint_and_saves_on_interval(self, tmp_path):
        from repro.runtime.checkpoint import CheckpointManager

        manager = CheckpointManager(tmp_path, interval=2)
        _moead(Schaffer(), 6, 5, population_size=12, neighborhood_size=4, checkpoint=manager)
        assert [path.name for path in manager.checkpoints()] == [
            "checkpoint-00000002.pkl",
            "checkpoint-00000004.pkl",
            "checkpoint-00000006.pkl",
        ]

    def test_resume_is_bitwise_identical(self, tmp_path):
        from repro.runtime.checkpoint import CheckpointManager

        config = dict(population_size=12, neighborhood_size=4)
        uninterrupted = _moead(Schaffer(), 8, 5, **config)

        manager = CheckpointManager(tmp_path, interval=3)
        _moead(Schaffer(), 5, 5, checkpoint=manager, **config)
        resumed = _moead(Schaffer(), 8, 5, checkpoint=manager, **config)

        assert resumed.generations == 8
        assert resumed.evaluations == uninterrupted.evaluations
        assert np.array_equal(
            uninterrupted.archive.objective_matrix(),
            resumed.archive.objective_matrix(),
        )
        assert np.array_equal(
            uninterrupted.population.decision_matrix(),
            resumed.population.decision_matrix(),
        )

    def test_callback_runs_every_generation(self):
        generations = []
        _moead(
            Schaffer(), 4, 5, population_size=12, neighborhood_size=4,
            observers=[CallbackObserver(on_generation=lambda e: generations.append(e.generation))],
        )
        assert generations == [1, 2, 3, 4]


class TestAdaptiveNeighborhoodDefault:
    def test_default_resolves_to_twenty_for_large_populations(self):
        assert MOEADConfig(population_size=100).resolved_neighborhood_size() == 20

    def test_default_shrinks_with_small_populations(self):
        assert MOEADConfig(population_size=8).resolved_neighborhood_size() == 4
        # The programmatic API works at small populations without an explicit
        # neighborhood_size, exactly like the CLI.
        result = _moead(Schaffer(), 2, 0, population_size=8)
        assert result.generations == 2

    def test_explicit_oversized_neighborhood_still_rejected(self):
        with pytest.raises(ConfigurationError):
            MOEADConfig(population_size=8, neighborhood_size=20).validate()
