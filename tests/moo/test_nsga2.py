"""Tests for the NSGA-II optimizer."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.moo.metrics import inverted_generational_distance
from repro.moo.nsga2 import NSGA2, NSGA2Config
from repro.moo.testproblems import ConstrainedBNH, Schaffer, ZDT1
from repro.solve import CallbackObserver, solve
from tests.helpers import solve_engine


class TestConfigValidation:
    def test_defaults_are_valid(self):
        NSGA2Config().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 3},
            {"population_size": 7},
            {"crossover_probability": 1.5},
            {"mutation_probability": -0.1},
            {"initialization": "bogus"},
        ],
    )
    def test_invalid_configurations_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            NSGA2Config(**kwargs).validate()


class TestNSGA2Run:
    def test_population_size_is_preserved(self):
        result = solve(Schaffer(), "nsga2", population_size=20, seed=0, termination=5)
        assert len(result.population) == 20
        assert result.generations == 5

    def test_evaluation_count_matches_budget(self):
        result = solve(Schaffer(), "nsga2", population_size=20, seed=0, termination=5)
        # Initial population + one offspring population per generation.
        assert result.evaluations == 20 * (5 + 1)

    def test_negative_generations_rejected(self):
        with pytest.raises(ConfigurationError):
            solve(Schaffer(), "nsga2", seed=0, termination=-1)

    def test_archive_members_are_non_dominated(self):
        from repro.moo.dominance import dominates

        result = solve(Schaffer(), "nsga2", population_size=16, seed=1, termination=10)
        matrix = result.archive.objective_matrix()
        for i in range(matrix.shape[0]):
            for j in range(matrix.shape[0]):
                if i != j:
                    assert not dominates(matrix[i], matrix[j])

    def test_converges_towards_schaffer_front(self):
        problem = Schaffer()
        result = solve(problem, "nsga2", population_size=40, seed=2, termination=40)
        front = result.archive.objective_matrix()
        igd = inverted_generational_distance(front, problem.true_front())
        assert igd < 0.2

    def test_seed_reproducibility(self):
        results = [
            solve(Schaffer(), "nsga2", population_size=16, seed=42, termination=8)
            .archive.objective_matrix()
            for _ in range(2)
        ]
        assert np.allclose(results[0], results[1])

    def test_different_seeds_differ(self):
        a = solve(ZDT1(n_var=6), "nsga2", population_size=16, seed=1, termination=5)
        b = solve(ZDT1(n_var=6), "nsga2", population_size=16, seed=2, termination=5)
        assert not np.allclose(
            a.population.decision_matrix(), b.population.decision_matrix()
        )

    def test_history_records_every_generation(self):
        result = solve(Schaffer(), "nsga2", population_size=16, seed=3, termination=7)
        assert len(result.history) == 7
        assert result.history[-1]["generation"] == 7

    def test_callback_invoked_each_generation(self):
        calls = []
        solve(
            Schaffer(), "nsga2", population_size=16, seed=3, termination=4,
            observers=[CallbackObserver(on_generation=lambda e: calls.append(e.generation))],
        )
        assert calls == [1, 2, 3, 4]

    def test_zero_generations_returns_initial_population(self):
        result = solve(Schaffer(), "nsga2", population_size=16, seed=3, termination=0)
        assert result.generations == 0
        assert len(result.population) == 16


class TestConstrainedOptimization:
    def test_population_becomes_mostly_feasible(self):
        result = solve(ConstrainedBNH(), "nsga2", population_size=30, seed=4, termination=20)
        feasible_fraction = len(result.population.feasible()) / len(result.population)
        assert feasible_fraction > 0.8


def _nsga2(seed, generations):
    """A 16-individual NSGA-II on Schaffer, run for ``generations``."""
    problem = Schaffer()
    optimizer = NSGA2(problem, NSGA2Config(population_size=16), seed=seed)
    solve_engine(problem, optimizer, generations)
    return optimizer


class TestMigrationHooks:
    def test_emigrants_are_copies_of_best(self):
        migrants = _nsga2(5, 3).emigrants(3)
        assert len(migrants) == 3
        for migrant in migrants:
            assert migrant.rank == 0

    def test_immigrate_keeps_population_size_and_absorbs_migrants(self):
        donor = _nsga2(6, 5)
        receiver = _nsga2(7, 1)
        migrants = donor.emigrants(4)
        receiver.immigrate(migrants)
        assert len(receiver.population) == 16

    def test_immigrate_with_empty_list_is_noop(self):
        optimizer = _nsga2(8, 1)
        before = optimizer.population.decision_matrix().copy()
        optimizer.immigrate([])
        assert np.allclose(before, optimizer.population.decision_matrix())
