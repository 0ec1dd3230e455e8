"""Tests for variation and selection operators."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.moo.individual import Population
from repro.moo.nsga2 import NSGA2, NSGA2Config, assign_ranks_and_crowding
from repro.moo.operators import binary_tournament, differential_variation, latin_hypercube
from repro.moo.testproblems import ZDT1, Schaffer
from repro.runtime.evaluator import SerialEvaluator
from tests.helpers import crossover_pair, mutate

LOWER = np.zeros(5)
UPPER = np.ones(5)


class TestSBX:
    def test_children_stay_inside_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.random(5)
            b = rng.random(5)
            child_a, child_b = crossover_pair(a, b, LOWER, UPPER, rng)
            assert np.all(child_a >= LOWER) and np.all(child_a <= UPPER)
            assert np.all(child_b >= LOWER) and np.all(child_b <= UPPER)

    def test_zero_probability_copies_parents(self):
        rng = np.random.default_rng(1)
        a, b = rng.random(5), rng.random(5)
        child_a, child_b = crossover_pair(a, b, LOWER, UPPER, rng, probability=0.0)
        assert child_a == pytest.approx(a)
        assert child_b == pytest.approx(b)

    def test_identical_parents_stay_identical(self):
        rng = np.random.default_rng(2)
        a = np.full(5, 0.5)
        child_a, child_b = crossover_pair(a, a.copy(), LOWER, UPPER, rng, probability=1.0)
        assert child_a == pytest.approx(a)
        assert child_b == pytest.approx(a)

    def test_invalid_eta_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ConfigurationError):
            crossover_pair(np.zeros(2), np.ones(2), np.zeros(2), np.ones(2), rng, eta=0.0)

    def test_large_eta_keeps_children_near_parents(self):
        rng = np.random.default_rng(4)
        a = np.full(5, 0.3)
        b = np.full(5, 0.7)
        children = []
        for _ in range(30):
            child_a, child_b = crossover_pair(a, b, LOWER, UPPER, rng, eta=200.0, probability=1.0)
            children.extend([child_a, child_b])
        # With a very large distribution index every offspring gene sits close
        # to one of the two parental values.
        deviations = [
            np.minimum(np.abs(child - 0.3), np.abs(child - 0.7)).max() for child in children
        ]
        assert np.median(deviations) < 0.05


class TestPolynomialMutation:
    def test_result_stays_inside_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.random(5)
            y = mutate(x, LOWER, UPPER, rng, probability=1.0)
            assert np.all(y >= LOWER) and np.all(y <= UPPER)

    def test_zero_probability_is_identity(self):
        rng = np.random.default_rng(1)
        x = rng.random(5)
        assert mutate(x, LOWER, UPPER, rng, probability=0.0) == pytest.approx(x)

    def test_default_probability_mutates_on_average_one_gene(self):
        rng = np.random.default_rng(2)
        changed = 0
        trials = 200
        for _ in range(trials):
            x = rng.random(5)
            y = mutate(x, LOWER, UPPER, rng)
            changed += int(np.sum(~np.isclose(x, y)))
        assert changed / trials == pytest.approx(1.0, abs=0.4)

    def test_invalid_eta_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ConfigurationError):
            mutate(np.zeros(2), np.zeros(2), np.ones(2), rng, eta=-1.0)

    def test_degenerate_bounds_left_unchanged(self):
        rng = np.random.default_rng(4)
        lower = np.array([0.5])
        upper = np.array([0.5])
        assert mutate(np.array([0.5]), lower, upper, rng, probability=1.0) == pytest.approx([0.5])


class TestTournament:
    def test_prefers_lower_rank(self):
        problem = Schaffer()
        rng = np.random.default_rng(0)
        population = Population.random(problem, 16, rng)
        population.evaluate(problem, SerialEvaluator())
        assign_ranks_and_crowding(population)
        winners = [population[binary_tournament(population, rng)] for _ in range(100)]
        mean_winner_rank = np.mean([w.rank for w in winners])
        mean_population_rank = np.mean([i.rank for i in population])
        assert mean_winner_rank <= mean_population_rank

    def test_requires_ranked_population(self):
        problem = Schaffer()
        rng = np.random.default_rng(0)
        population = Population.random(problem, 4, rng)
        population.evaluate(problem, SerialEvaluator())
        with pytest.raises(ConfigurationError):
            binary_tournament(population, rng)

    def test_empty_population_rejected(self):
        with pytest.raises(ConfigurationError):
            binary_tournament(Population(), np.random.default_rng(0))


class TestDifferentialVariation:
    def test_child_within_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            base, a, b = rng.random(5), rng.random(5), rng.random(5)
            child = differential_variation(base, a, b, LOWER, UPPER, rng)
            assert np.all(child >= LOWER) and np.all(child <= UPPER)

    def test_zero_scale_and_full_crossover_returns_base(self):
        rng = np.random.default_rng(1)
        base, a, b = rng.random(5), rng.random(5), rng.random(5)
        child = differential_variation(base, a, b, LOWER, UPPER, rng, scale=0.0)
        assert child == pytest.approx(base)


class TestInitialization:
    def test_latin_hypercube_stratifies_each_dimension(self):
        problem = ZDT1(n_var=4)
        population = latin_hypercube(problem, 10, np.random.default_rng(0))
        matrix = population.X
        # Every decile of every dimension holds exactly one sample.
        for j in range(4):
            bins = np.floor(matrix[:, j] * 10).astype(int)
            bins = np.clip(bins, 0, 9)
            assert len(set(bins)) == 10

    def test_latin_hypercube_requires_positive_size(self):
        with pytest.raises(ConfigurationError):
            latin_hypercube(ZDT1(), 0, np.random.default_rng(0))

    def test_uniform_initialization_is_population_random(self):
        problem = Schaffer()
        optimizer = NSGA2(problem, NSGA2Config(population_size=8, initialization="uniform"), seed=0)
        optimizer.initialize()
        expected = Population.random(problem, 8, np.random.default_rng(0))
        np.testing.assert_array_equal(optimizer.population.X, expected.X)
        assert np.all(expected.X >= problem.lower_bounds)
        assert np.all(expected.X <= problem.upper_bounds)
