"""Property-based tests (hypothesis) for the optimizer's core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.moo import kernels
from repro.moo.archive import ParetoArchive
from repro.moo.individual import Individual
from repro.moo.metrics import hypervolume
from repro.moo.mining import closest_to_ideal, ideal_point
from repro.moo.robustness import PerturbationModel, robustness_condition
from tests.helpers import crossover_pair, mutate

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


@st.composite
def constrained_populations(draw):
    """``(F, CV)`` with ``CV`` mixing exact zeros (feasible) and positive violations."""
    F = draw(objective_matrices)
    violation = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=5.0))
    CV = np.array(draw(st.lists(violation, min_size=F.shape[0], max_size=F.shape[0])))
    return F, CV


class TestDominanceProperties:
    @given(objective_matrices)
    @settings(max_examples=50, deadline=None)
    def test_dominance_is_irreflexive_and_asymmetric(self, matrix):
        dominates = kernels.domination_matrix(matrix)
        assert not dominates.diagonal().any()
        assert not (dominates & dominates.T).any()

    @given(constrained_populations())
    @settings(max_examples=50, deadline=None)
    def test_constrained_dominance_is_irreflexive_and_asymmetric(self, population):
        dominates = kernels.constrained_domination_matrix(*population)
        assert not dominates.diagonal().any()
        assert not (dominates & dominates.T).any()

    @given(objective_matrices)
    @settings(max_examples=50, deadline=None)
    def test_first_front_is_exactly_the_non_dominated_set(self, matrix):
        fronts = kernels.nondominated_sort(matrix)
        assert fronts[0] == np.flatnonzero(kernels.non_dominated_mask(matrix)).tolist()

    @given(objective_matrices)
    @settings(max_examples=50, deadline=None)
    def test_crowding_is_non_negative(self, matrix):
        distances = kernels.crowding_distances(matrix)
        assert np.all(distances >= 0.0)


class TestConstrainedSortProperties:
    @given(constrained_populations())
    @settings(max_examples=60, deadline=None)
    def test_fronts_partition_the_rows(self, population):
        F, CV = population
        fronts = kernels.nondominated_sort(F, CV)
        assert sorted(index for front in fronts for index in front) == list(range(F.shape[0]))

    @given(constrained_populations(), st.integers(1, 14))
    @settings(max_examples=100, deadline=None)
    def test_cover_returns_the_shortest_prefix_of_fronts_holding_cover_rows(
        self, population, cover
    ):
        F, CV = population
        full = kernels.nondominated_sort(F, CV)
        sizes = np.cumsum([len(front) for front in full])
        # Fronts up to and including the first whose running total reaches
        # ``cover``; every front when the rows run out first.
        length = min(int(np.searchsorted(sizes, cover)) + 1, len(full))
        assert kernels.nondominated_sort(F, CV, cover=cover) == full[:length]

    @given(constrained_populations())
    @settings(max_examples=60, deadline=None)
    def test_no_member_of_a_front_dominates_another(self, population):
        F, CV = population
        dominates = kernels.constrained_domination_matrix(F, CV)
        for front in kernels.nondominated_sort(F, CV):
            assert not dominates[np.ix_(front, front)].any()

    @given(constrained_populations())
    @settings(max_examples=60, deadline=None)
    def test_every_later_member_is_dominated_by_the_previous_front(self, population):
        F, CV = population
        dominates = kernels.constrained_domination_matrix(F, CV)
        fronts = kernels.nondominated_sort(F, CV)
        for previous, front in zip(fronts, fronts[1:]):
            assert dominates[np.ix_(previous, front)].any(axis=0).all()

    @given(constrained_populations())
    @settings(max_examples=40, deadline=None)
    def test_archive_of_the_same_rows_is_mutually_non_dominated(self, population):
        F, CV = population
        individuals = []
        for row, violation in zip(F, CV):
            individual = Individual(row.copy())
            individual.objectives = row.copy()
            individual.constraint_violation = float(violation)
            individuals.append(individual)
        archive = ParetoArchive()
        archive.add_population(individuals)
        assert len(archive) >= 1
        assert not kernels.constrained_domination_matrix(archive.F, archive.CV).any()


class TestArchiveProperties:
    @given(objective_matrices)
    @settings(max_examples=30, deadline=None)
    def test_archive_never_keeps_dominated_members(self, matrix):
        archive = ParetoArchive()
        for row in matrix:
            individual = Individual(row.copy())
            individual.objectives = row.copy()
            archive.add(individual)
        assert not kernels.domination_matrix(archive.F).any()


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
        child_a, child_b = crossover_pair(a, b, lower, upper, rng)
        assert np.all(child_a >= lower) and np.all(child_a <= upper)
        assert np.all(child_b >= lower) and np.all(child_b <= upper)

    @given(vectors, st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_mutation_respects_bounds(self, x, seed):
        lower, upper = np.zeros(x.size), np.ones(x.size)
        rng = np.random.default_rng(seed)
        y = mutate(x, lower, upper, rng, probability=1.0)
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
