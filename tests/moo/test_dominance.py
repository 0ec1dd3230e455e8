"""Tests for Pareto dominance, non-dominated sorting and crowding distance."""

import numpy as np
import pytest

from repro.moo.dominance import (
    assign_ranks_and_crowding,
    constrained_dominates,
    crowding_distance,
    dominates,
    fast_non_dominated_sort,
    filter_non_dominated,
    non_dominated_front_indices,
)
from repro.moo.individual import Individual, Population
from repro.problems import EvaluationResult


def make_individual(objectives, violation=0.0):
    individual = Individual(np.zeros(1))
    individual.set_evaluation(
        EvaluationResult(
            objectives=np.asarray(objectives, dtype=float),
            constraint_violations=np.array([violation]),
        )
    )
    return individual


class TestDominates:
    def test_strictly_better_in_all(self):
        assert dominates([1.0, 1.0], [2.0, 2.0])

    def test_better_in_one_equal_in_other(self):
        assert dominates([1.0, 2.0], [2.0, 2.0])

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates([1.0, 1.0], [1.0, 1.0])

    def test_incomparable_vectors(self):
        assert not dominates([1.0, 3.0], [2.0, 2.0])
        assert not dominates([2.0, 2.0], [1.0, 3.0])


class TestConstrainedDominance:
    def test_feasible_beats_infeasible(self):
        good = make_individual([10.0, 10.0])
        bad = make_individual([0.0, 0.0], violation=1.0)
        assert constrained_dominates(good, bad)
        assert not constrained_dominates(bad, good)

    def test_less_violating_beats_more_violating(self):
        a = make_individual([0.0, 0.0], violation=0.5)
        b = make_individual([0.0, 0.0], violation=2.0)
        assert constrained_dominates(a, b)

    def test_both_feasible_uses_pareto_dominance(self):
        a = make_individual([1.0, 1.0])
        b = make_individual([2.0, 2.0])
        assert constrained_dominates(a, b)


class TestSorting:
    def test_non_dominated_front_indices(self):
        objectives = np.array([[1.0, 4.0], [2.0, 3.0], [3.0, 3.5], [4.0, 1.0]])
        assert non_dominated_front_indices(objectives) == [0, 1, 3]

    def test_fast_sort_produces_consistent_fronts(self):
        population = Population(
            [
                make_individual([1.0, 4.0]),
                make_individual([2.0, 3.0]),
                make_individual([3.0, 3.5]),
                make_individual([4.0, 1.0]),
                make_individual([5.0, 5.0]),
            ]
        )
        fronts = fast_non_dominated_sort(population)
        assert fronts[0] == [0, 1, 3]
        assert set(fronts[1]) == {2}
        assert set(fronts[2]) == {4}
        assert sum(len(front) for front in fronts) == len(population)

    def test_every_member_of_front_zero_is_non_dominated(self):
        rng = np.random.default_rng(0)
        population = Population(
            [make_individual(rng.random(2)) for _ in range(30)]
        )
        fronts = fast_non_dominated_sort(population)
        matrix = population.objective_matrix()
        expected = set(non_dominated_front_indices(matrix))
        assert set(fronts[0]) == expected

    def test_filter_non_dominated(self):
        population = Population(
            [make_individual([1.0, 2.0]), make_individual([2.0, 1.0]), make_individual([3.0, 3.0])]
        )
        kept = filter_non_dominated(population)
        assert len(kept) == 2


class TestCrowding:
    def test_boundaries_are_infinite(self):
        matrix = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        distances = crowding_distance(matrix)
        assert np.isinf(distances[0])
        assert np.isinf(distances[3])
        assert np.isfinite(distances[1])
        assert np.isfinite(distances[2])

    def test_two_points_are_both_infinite(self):
        assert np.all(np.isinf(crowding_distance(np.array([[0.0, 1.0], [1.0, 0.0]]))))

    def test_denser_region_has_smaller_distance(self):
        matrix = np.array([[0.0, 4.0], [1.0, 3.0], [1.1, 2.9], [2.0, 1.0], [4.0, 0.0]])
        distances = crowding_distance(matrix)
        # The two clustered points (indices 1 and 2) are more crowded than
        # the isolated interior point (index 3).
        assert max(distances[1], distances[2]) < distances[3]

    def test_degenerate_identical_objective_column(self):
        matrix = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        distances = crowding_distance(matrix)
        assert np.all(np.isfinite(distances[1:2]))

    def test_empty_input(self):
        assert crowding_distance(np.empty((0, 2))).size == 0


class TestAssignRanks:
    def test_assigns_rank_and_crowding_to_everyone(self):
        rng = np.random.default_rng(1)
        population = Population([make_individual(rng.random(2)) for _ in range(20)])
        fronts = assign_ranks_and_crowding(population)
        for individual in population:
            assert individual.rank is not None
            assert individual.crowding is not None
        assert min(front_index for front_index, front in enumerate(fronts) if front) == 0

    def test_rank_zero_matches_first_front(self):
        population = Population(
            [make_individual([1.0, 1.0]), make_individual([2.0, 2.0])]
        )
        assign_ranks_and_crowding(population)
        assert population[0].rank == 0
        assert population[1].rank == 1
