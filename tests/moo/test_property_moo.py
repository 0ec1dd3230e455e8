"""Property-based tests (hypothesis) for the optimizer's core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.moo.archive import ParetoArchive
from repro.moo.dominance import (
    crowding_distance,
    dominates,
    fast_non_dominated_sort,
    non_dominated_front_indices,
)
from repro.moo.individual import Individual, Population
from repro.moo.metrics import hypervolume
from repro.moo.mining import closest_to_ideal, ideal_point
from repro.moo.operators import polynomial_mutation, sbx_crossover
from repro.problems import EvaluationResult
from repro.moo.robustness import PerturbationModel, robustness_condition

objective_matrices = arrays(
    dtype=float,
    shape=st.tuples(st.integers(2, 12), st.integers(2, 3)),
    elements=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)

vectors = arrays(
    dtype=float,
    shape=st.integers(2, 8),
    elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


def _population_from_matrix(matrix):
    individuals = []
    for row in matrix:
        individual = Individual(np.zeros(1))
        individual.set_evaluation(EvaluationResult(objectives=row))
        individuals.append(individual)
    return Population(individuals)


class TestDominanceProperties:
    @given(objective_matrices)
    @settings(max_examples=50, deadline=None)
    def test_dominance_is_irreflexive_and_asymmetric(self, matrix):
        for row in matrix:
            assert not dominates(row, row)
        for i in range(matrix.shape[0]):
            for j in range(matrix.shape[0]):
                if dominates(matrix[i], matrix[j]):
                    assert not dominates(matrix[j], matrix[i])

    @given(objective_matrices)
    @settings(max_examples=50, deadline=None)
    def test_sorting_partitions_population(self, matrix):
        population = _population_from_matrix(matrix)
        fronts = fast_non_dominated_sort(population)
        flattened = sorted(index for front in fronts for index in front)
        assert flattened == list(range(matrix.shape[0]))

    @given(objective_matrices)
    @settings(max_examples=50, deadline=None)
    def test_first_front_is_exactly_the_non_dominated_set(self, matrix):
        population = _population_from_matrix(matrix)
        fronts = fast_non_dominated_sort(population)
        assert set(fronts[0]) == set(non_dominated_front_indices(matrix))

    @given(objective_matrices)
    @settings(max_examples=50, deadline=None)
    def test_crowding_is_non_negative(self, matrix):
        distances = crowding_distance(matrix)
        assert np.all(distances >= 0.0)


class TestArchiveProperties:
    @given(objective_matrices)
    @settings(max_examples=30, deadline=None)
    def test_archive_never_keeps_dominated_members(self, matrix):
        archive = ParetoArchive()
        for row in matrix:
            individual = Individual(row.copy())
            individual.set_evaluation(EvaluationResult(objectives=row))
            archive.add(individual)
        stored = archive.objective_matrix()
        for i in range(stored.shape[0]):
            for j in range(stored.shape[0]):
                if i != j:
                    assert not dominates(stored[i], stored[j])


class TestHypervolumeProperties:
    @given(objective_matrices)
    @settings(max_examples=30, deadline=None)
    def test_hypervolume_is_non_negative_and_bounded_by_reference_box(self, matrix):
        reference = matrix.max(axis=0) + 1.0
        value = hypervolume(matrix, reference)
        box = float(np.prod(reference - matrix.min(axis=0)))
        assert 0.0 <= value <= box + 1e-9

    @given(objective_matrices)
    @settings(max_examples=30, deadline=None)
    def test_adding_a_point_never_decreases_hypervolume(self, matrix):
        reference = matrix.max(axis=0) + 1.0
        base = hypervolume(matrix[:-1], reference) if matrix.shape[0] > 1 else 0.0
        assert hypervolume(matrix, reference) >= base - 1e-9


class TestOperatorProperties:
    @given(vectors, vectors, st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_sbx_respects_bounds(self, a, b, seed):
        n = min(a.size, b.size)
        a, b = a[:n], b[:n]
        lower, upper = np.zeros(n), np.ones(n)
        rng = np.random.default_rng(seed)
        child_a, child_b = sbx_crossover(a, b, lower, upper, rng)
        assert np.all(child_a >= lower) and np.all(child_a <= upper)
        assert np.all(child_b >= lower) and np.all(child_b <= upper)

    @given(vectors, st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_mutation_respects_bounds(self, x, seed):
        lower, upper = np.zeros(x.size), np.ones(x.size)
        rng = np.random.default_rng(seed)
        y = polynomial_mutation(x, lower, upper, rng, probability=1.0)
        assert np.all(y >= lower) and np.all(y <= upper)


class TestMiningProperties:
    @given(objective_matrices)
    @settings(max_examples=50, deadline=None)
    def test_ideal_point_is_a_lower_bound(self, matrix):
        ideal = ideal_point(matrix)
        assert np.all(matrix >= ideal - 1e-12)

    @given(objective_matrices)
    @settings(max_examples=50, deadline=None)
    def test_closest_to_ideal_returns_valid_index(self, matrix):
        index = closest_to_ideal(matrix)
        assert 0 <= index < matrix.shape[0]


class TestRobustnessProperties:
    @given(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_condition_is_binary_and_symmetric_in_threshold(self, nominal, perturbed, epsilon):
        value = robustness_condition(nominal, perturbed, epsilon)
        assert value in (0, 1)
        if value == 1 and epsilon < 1.0:
            assert robustness_condition(nominal, perturbed, min(epsilon * 2, 1.0)) == 1

    @given(
        arrays(dtype=float, shape=st.integers(1, 6), elements=st.floats(0.1, 10.0)),
        st.integers(1, 50),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_perturbations_stay_within_magnitude(self, x, n_trials, seed):
        model = PerturbationModel(magnitude=0.1)
        trials = model.perturb_all(x, n_trials, np.random.default_rng(seed))
        assert np.all(trials >= x * 0.9 - 1e-9)
        assert np.all(trials <= x * 1.1 + 1e-9)
