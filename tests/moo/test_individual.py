"""Tests for individuals and populations."""

import pickle

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.moo.individual import Individual, Population
from repro.moo.testproblems import Schaffer
from repro.problems import BatchEvaluation, Problem
from repro.runtime.evaluator import SerialEvaluator


class TestIndividual:
    def test_starts_unevaluated(self):
        individual = Individual(np.array([1.0]))
        assert not individual.is_evaluated
        assert individual.is_feasible

    def test_setters_store_objectives_and_violation(self):
        individual = Individual(np.array([1.0]))
        individual.objectives = np.array([1.0, 2.0])
        individual.constraint_violation = 0.3
        assert individual.is_evaluated
        assert individual.objectives == pytest.approx([1.0, 2.0])
        assert individual.constraint_violation == pytest.approx(0.3)
        assert not individual.is_feasible

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
        evaluator = SerialEvaluator()
        assert population.evaluate(problem, evaluator) == 4
        assert population.evaluate(problem, evaluator) == 0
        assert evaluator.ledger.total_evaluations == 4

    def test_objective_view_requires_evaluation(self):
        population = Population.from_vectors([np.array([0.5])])
        with pytest.raises(ConfigurationError):
            population.F

    def test_views_have_expected_shapes(self):
        problem = Schaffer()
        population = Population.random(problem, 6, np.random.default_rng(1))
        population.evaluate(problem, SerialEvaluator())
        assert population.F.shape == (6, 2)
        assert population.X.shape == (6, 1)
        assert population.CV.shape == (6,)

    def test_empty_population_views(self):
        population = Population()
        assert population.F.shape == (0, 0)
        assert population.X.shape == (0, 0)
        assert population.CV.shape == (0,)

    def test_evaluate_rebuilds_the_objective_view(self):
        problem = Schaffer()
        population = Population.random(problem, 3, np.random.default_rng(4))
        population.append(Individual(np.array([1.0])))
        population.evaluate(problem, SerialEvaluator())
        expected = problem.evaluate_matrix(population.X).F
        np.testing.assert_array_equal(population.F, expected)

    def test_slicing_returns_population(self):
        problem = Schaffer()
        population = Population.random(problem, 6, np.random.default_rng(1))
        subset = population[:3]
        assert isinstance(subset, Population)
        assert len(subset) == 3

    def test_violation_view_marks_infeasible_rows(self):
        a = Individual(np.array([0.0]))
        a.objectives = np.array([1.0])
        b = Individual(np.array([0.0]))
        b.objectives = np.array([1.0])
        b.constraint_violation = 1.0
        population = Population([a, b])
        assert population.CV.tolist() == [0.0, 1.0]

    def test_pickle_keeps_individuals_and_rebuilds_views(self):
        problem = Schaffer()
        population = Population.random(problem, 5, np.random.default_rng(2))
        population.evaluate(problem, SerialEvaluator())
        F = population.F
        clone = pickle.loads(pickle.dumps(population))
        assert "_views" not in clone.__getstate__()
        np.testing.assert_array_equal(clone.F, F)
        assert not clone.F.flags.writeable

    def test_copy_is_deep(self):
        problem = Schaffer()
        population = Population.random(problem, 3, np.random.default_rng(3))
        clone = population.copy()
        clone[0].x[0] = 123.0
        assert population[0].x[0] != 123.0

    def test_from_matrix_owns_a_c_ordered_copy(self):
        X = np.asfortranarray(np.arange(12.0).reshape(4, 3))
        population = Population.from_matrix(X)
        assert population.X.flags.c_contiguous
        assert population.X.tobytes() == np.ascontiguousarray(X).tobytes()
        X[0, 0] = -1.0
        assert population.X[0, 0] == 0.0


class _Violations(Problem):
    """Returns a fixed, seeded violation matrix of ``n_con`` columns."""

    def __init__(self, n_con, rows):
        super().__init__(n_var=1, n_obj=1, lower_bounds=[0.0], upper_bounds=[1.0], n_con=n_con)
        rng = np.random.default_rng(n_con)
        # Mixed signs and magnitudes, so clipping and summation order matter.
        self.G = rng.normal(size=(rows, n_con)) * 10.0 ** rng.integers(-8, 8, size=(rows, n_con))

    def _evaluate_matrix(self, X):
        return BatchEvaluation(F=X.copy(), G=self.G[: len(X)])


class TestEvaluatedViolations:
    @pytest.mark.parametrize("n_con", [0, 1, 2, 9, 130])
    def test_cv_is_the_per_row_sum_of_positive_violations(self, n_con):
        """``Population.evaluate`` stores, bit for bit, the per-row sum a
        single-row evaluation would give: ``float(np.sum(np.clip(g, 0, None)))``."""
        problem = _Violations(n_con, rows=40)
        population = Population.from_matrix(np.linspace(0.0, 1.0, 40)[:, None])
        population.evaluate(problem, SerialEvaluator())
        expected = [float(np.sum(np.clip(g, 0.0, None))) for g in problem.G]
        assert population.CV.tobytes() == np.array(expected).tobytes()
