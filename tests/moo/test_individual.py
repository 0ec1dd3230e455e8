"""Tests for individuals and populations."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.moo.individual import Individual, Population
from repro.problems import EvaluationResult
from repro.moo.testproblems import Schaffer


class TestIndividual:
    def test_starts_unevaluated(self):
        individual = Individual(np.array([1.0]))
        assert not individual.is_evaluated
        assert individual.is_feasible

    def test_set_evaluation_stores_objectives_and_violation(self):
        individual = Individual(np.array([1.0]))
        individual.set_evaluation(
            EvaluationResult(
                objectives=np.array([1.0, 2.0]),
                constraint_violations=np.array([0.3]),
                info={"note": "x"},
            )
        )
        assert individual.is_evaluated
        assert individual.objectives == pytest.approx([1.0, 2.0])
        assert individual.constraint_violation == pytest.approx(0.3)
        assert not individual.is_feasible
        assert individual.info == {"note": "x"}

    def test_copy_is_deep(self):
        individual = Individual(np.array([1.0, 2.0]))
        individual.set_evaluation(EvaluationResult(objectives=np.array([3.0])))
        clone = individual.copy()
        clone.x[0] = 99.0
        clone.objectives[0] = 99.0
        assert individual.x[0] == 1.0
        assert individual.objectives[0] == 3.0

    def test_decision_vector_is_copied_on_construction(self):
        source = np.array([1.0, 2.0])
        individual = Individual(source)
        source[0] = 50.0
        assert individual.x[0] == 1.0


class TestPopulation:
    def test_random_population_respects_bounds_and_size(self):
        problem = Schaffer()
        population = Population.random(problem, 16, np.random.default_rng(0))
        assert len(population) == 16
        for individual in population:
            assert problem.lower_bounds[0] <= individual.x[0] <= problem.upper_bounds[0]

    def test_random_population_requires_positive_size(self):
        with pytest.raises(ConfigurationError):
            Population.random(Schaffer(), 0, np.random.default_rng(0))

    def test_evaluate_only_touches_unevaluated(self):
        problem = Schaffer()
        population = Population.random(problem, 4, np.random.default_rng(0))
        assert population.evaluate(problem) == 4
        assert population.evaluate(problem) == 0

    def test_objective_matrix_requires_evaluation(self):
        population = Population.from_vectors([np.array([0.5])])
        with pytest.raises(ConfigurationError):
            population.objective_matrix()

    def test_matrices_have_expected_shapes(self):
        problem = Schaffer()
        population = Population.random(problem, 6, np.random.default_rng(1))
        population.evaluate(problem)
        assert population.objective_matrix().shape == (6, 2)
        assert population.decision_matrix().shape == (6, 1)
        assert population.violations().shape == (6,)

    def test_slicing_returns_population(self):
        problem = Schaffer()
        population = Population.random(problem, 6, np.random.default_rng(1))
        subset = population[:3]
        assert isinstance(subset, Population)
        assert len(subset) == 3

    def test_feasible_filters_by_violation(self):
        a = Individual(np.array([0.0]))
        a.set_evaluation(EvaluationResult(objectives=np.array([1.0])))
        b = Individual(np.array([0.0]))
        b.set_evaluation(
            EvaluationResult(
                objectives=np.array([1.0]), constraint_violations=np.array([1.0])
            )
        )
        population = Population([a, b])
        assert len(population.feasible()) == 1

    def test_best_by_objective(self):
        problem = Schaffer()
        population = Population.random(problem, 12, np.random.default_rng(2))
        population.evaluate(problem)
        best = population.best_by_objective(0)
        values = population.objective_matrix()[:, 0]
        assert best.objectives[0] == pytest.approx(values.min())

    def test_best_by_objective_empty_population(self):
        with pytest.raises(ConfigurationError):
            Population().best_by_objective(0)

    def test_copy_is_deep(self):
        problem = Schaffer()
        population = Population.random(problem, 3, np.random.default_rng(3))
        clone = population.copy()
        clone[0].x[0] = 123.0
        assert population[0].x[0] != 123.0
