"""Equivalence suite: vectorized kernels versus the naive references.

Every kernel of :mod:`repro.moo.kernels` must agree element-for-element
(values, orders, tie-breaks) with the preserved pure-Python implementations
in ``tests/oracles/kernels.py`` on seeded random populations — feasible,
infeasible, mixed, and with duplicated objective rows.  A golden-file test
additionally locks the whole refactor down end to end: the ``front.json``
artifact of a canned experiment must be bitwise identical to the one the
pre-kernel implementation recorded.
"""

import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.moo import kernels
from repro.moo.archive import ParetoArchive
from repro.moo.individual import Individual, Population
from repro.moo.metrics import spacing
from repro.moo.nsga2 import assign_ranks_and_crowding
from tests.oracles import archive as archive_oracle
from tests.oracles.kernels import (
    reference_archive_prune,
    reference_constrained_dominates,
    reference_crowding_distance,
    reference_fast_non_dominated_sort,
    reference_non_dominated_front_indices,
)

GOLDEN_FRONT = Path(__file__).parent / "data" / "golden_front_migration_ablation.json"


def _random_case(seed: int, n: int = 40, m: int = 3, feasibility: str = "mixed"):
    """Seeded (F, CV, X) triple covering the feasibility regimes."""
    rng = np.random.default_rng(seed)
    F = rng.normal(size=(n, m))
    X = rng.uniform(size=(n, max(m, 2)))
    if feasibility == "feasible":
        CV = np.zeros(n)
    elif feasibility == "infeasible":
        CV = rng.uniform(0.1, 2.0, size=n)
    else:
        CV = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.1, 2.0, size=n))
    return F, CV, X


def _with_duplicates(F, CV, X, rng):
    """Duplicate a third of the rows (objectives and decisions alike)."""
    n = F.shape[0]
    source = rng.integers(0, n, size=n // 3)
    target = rng.integers(0, n, size=n // 3)
    F, CV, X = F.copy(), CV.copy(), X.copy()
    F[target] = F[source]
    CV[target] = CV[source]
    X[target] = X[source]
    return F, CV, X


def _population(F, CV):
    individuals = []
    for row, violation in zip(F, CV):
        individual = Individual(np.zeros(2))
        individual.objectives = np.array(row, dtype=float)
        individual.constraint_violation = float(violation)
        individuals.append(individual)
    return Population(individuals)


CASES = [
    (0, "feasible"),
    (1, "infeasible"),
    (2, "mixed"),
    (3, "mixed"),
]


class TestDominationMatrices:
    @pytest.mark.parametrize("seed,feasibility", CASES)
    def test_constrained_matrix_matches_pairwise_reference(self, seed, feasibility):
        F, CV, _ = _random_case(seed, feasibility=feasibility)
        matrix = kernels.constrained_domination_matrix(F, CV)
        n = F.shape[0]
        for i in range(n):
            for j in range(n):
                expected = i != j and reference_constrained_dominates(
                    F[i], CV[i], F[j], CV[j]
                )
                assert matrix[i, j] == expected, (i, j)

    def test_blocks_agree_with_square_matrix(self):
        F, CV, _ = _random_case(5, feasibility="mixed")
        square = kernels.constrained_domination_matrix(F, CV)
        blocks = kernels.constrained_domination_blocks(F[:15], CV[:15], F[15:], CV[15:])
        np.testing.assert_array_equal(blocks, square[:15, 15:])

    def test_point_fast_paths_agree_with_blocks(self):
        # The per-candidate archive oracle uses specialised rows-vs-one
        # helpers; on NaN-free violations they must agree with the general
        # blocks the kernel folds with, including zero-violation ties.
        F, CV, _ = _random_case(6, n=25, feasibility="mixed")
        CV[3] = CV[7] = 0.0
        for c in range(F.shape[0]):
            rows = np.delete(np.arange(F.shape[0]), c)
            expected_down = kernels.constrained_domination_blocks(
                F[rows], CV[rows], F[c : c + 1], CV[c : c + 1]
            )[:, 0]
            expected_up = kernels.constrained_domination_blocks(
                F[c : c + 1], CV[c : c + 1], F[rows], CV[rows]
            )[0, :]
            np.testing.assert_array_equal(
                archive_oracle._rows_dominate_point(F[rows], CV[rows], F[c], CV[c]),
                expected_down,
            )
            np.testing.assert_array_equal(
                archive_oracle._point_dominates_rows(F[c], CV[c], F[rows], CV[rows]),
                expected_up,
            )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_non_dominated_mask_matches_reference(self, seed):
        F, _, _ = _random_case(seed, n=60, m=2)
        expected = reference_non_dominated_front_indices(F)
        assert np.flatnonzero(kernels.non_dominated_mask(F)).tolist() == expected


class TestNonDominatedSort:
    @pytest.mark.parametrize("seed,feasibility", CASES)
    def test_fronts_and_order_match_reference(self, seed, feasibility):
        F, CV, X = _random_case(seed, n=50, feasibility=feasibility)
        rng = np.random.default_rng(seed + 100)
        F, CV, X = _with_duplicates(F, CV, X, rng)
        assert kernels.nondominated_sort(F, CV) == reference_fast_non_dominated_sort(F, CV)

    def test_assign_ranks_and_crowding_matches_reference(self):
        F, CV, _ = _random_case(7, n=30, feasibility="mixed")
        expected = reference_fast_non_dominated_sort(F, CV)
        population = _population(F, CV)
        assert assign_ranks_and_crowding(population) == expected
        for rank, front in enumerate(expected):
            crowding = reference_crowding_distance(F[np.asarray(front)])
            assert [population[i].rank for i in front] == [rank] * len(front)
            assert [population[i].crowding for i in front] == crowding.tolist()

    def test_empty_and_singleton(self):
        assert kernels.nondominated_sort(np.empty((0, 2))) == []
        assert kernels.nondominated_sort(np.array([[1.0, 2.0]])) == [[0]]
        assert assign_ranks_and_crowding(Population()) == []


class TestCrowding:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_reference_bitwise(self, seed):
        F, _, _ = _random_case(seed, n=35, m=4)
        np.testing.assert_array_equal(
            kernels.crowding_distances(F), reference_crowding_distance(F)
        )

    def test_duplicate_rows_match_reference(self):
        rng = np.random.default_rng(11)
        F = rng.normal(size=(20, 3))
        F[5:15] = F[0]  # heavy duplication, ties everywhere
        np.testing.assert_array_equal(
            kernels.crowding_distances(F), reference_crowding_distance(F)
        )

    def test_zero_range_objective_matches_reference(self):
        rng = np.random.default_rng(12)
        F = rng.normal(size=(10, 2))
        F[:, 1] = 4.2  # one objective constant across the whole front
        np.testing.assert_array_equal(
            kernels.crowding_distances(F), reference_crowding_distance(F)
        )

    def test_degenerate_fronts_raise_no_runtime_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            duplicated = np.ones((6, 3))
            distances = kernels.crowding_distances(duplicated)
            assert np.isinf(distances[0]) and np.isinf(distances[-1])
            assert np.all(distances[1:-1] == 0.0)
            zero_range = np.column_stack([np.arange(5.0), np.zeros(5)])
            kernels.crowding_distances(zero_range)
            assert spacing(duplicated) == 0.0
            spacing(zero_range)

    def test_small_fronts(self):
        assert kernels.crowding_distances(np.empty((0, 2))).size == 0
        assert np.all(np.isinf(kernels.crowding_distances(np.array([[0.0, 1.0], [1.0, 0.0]]))))

    def test_truncation_order_matches_stable_reverse_sort(self):
        crowding = np.array([1.0, np.inf, 0.5, 1.0, np.inf, 0.0])
        order = kernels.crowding_truncation_order(crowding).tolist()
        expected = sorted(
            range(len(crowding)), key=lambda i: crowding[i], reverse=True
        )
        assert order == expected


class TestTournamentKernel:
    def test_winner_follows_rank_then_crowding(self):
        ranks = np.array([0.0, 1.0, 0.0, 0.0])
        crowding = np.array([0.5, 9.0, 2.0, 0.5])
        pairs = [(0, 1), (1, 0), (0, 2), (2, 0), (0, 3)]
        outcomes = [
            kernels.tournament_winner(ranks[a], crowding[a], ranks[b], crowding[b])
            for a, b in pairs
        ]
        assert outcomes == [0, 1, 1, 0, None]

    def test_winner_agrees_with_rank_crowding_key(self):
        rng = np.random.default_rng(21)
        ranks = rng.integers(0, 3, size=30).astype(float)
        crowding = np.where(rng.random(30) < 0.2, np.inf, rng.integers(0, 4, size=30))
        for a, b in rng.integers(0, 30, size=(100, 2)):
            key_a, key_b = (ranks[a], -crowding[a]), (ranks[b], -crowding[b])
            outcome = kernels.tournament_winner(ranks[a], crowding[a], ranks[b], crowding[b])
            if key_a == key_b:
                assert outcome is None
            else:
                assert outcome == (0 if key_a < key_b else 1)


class TestArchivePrune:
    @pytest.mark.parametrize("seed,feasibility", CASES)
    @pytest.mark.parametrize("capacity", [None, 8])
    def test_batch_prune_matches_sequential_reference(self, seed, feasibility, capacity):
        F, CV, X = _random_case(seed, n=45, feasibility=feasibility)
        rng = np.random.default_rng(seed + 200)
        F, CV, X = _with_duplicates(F, CV, X, rng)
        kept, accepted = kernels.archive_prune(F, CV, X, 0, capacity=capacity)
        expected_kept, expected_accepted = reference_archive_prune(
            F, CV, X, 0, capacity=capacity
        )
        assert kept == expected_kept
        assert accepted == expected_accepted

    @pytest.mark.parametrize("capacity", [None, 6])
    def test_add_population_equals_per_individual_reference(self, capacity):
        F, CV, X = _random_case(9, n=30, m=2, feasibility="mixed")
        individuals = []
        for i in range(F.shape[0]):
            individual = Individual(X[i])
            individual.objectives = F[i].copy()
            individual.constraint_violation = float(CV[i])
            individuals.append(individual)
        archive = ParetoArchive(capacity=capacity)
        accepted = archive.add_population(individuals)
        expected_kept, expected_accepted = reference_archive_prune(
            F, CV, X, 0, capacity=capacity
        )
        assert accepted == expected_accepted
        np.testing.assert_array_equal(archive.F, F[expected_kept])
        np.testing.assert_array_equal(archive.X, X[expected_kept])
        np.testing.assert_array_equal(archive.CV, CV[expected_kept])

    def test_prune_on_top_of_existing_members(self):
        F, CV, X = _random_case(13, n=40, feasibility="feasible")
        # Seed the archive with the non-dominated subset of the first half,
        # then fold in the second half as one batch.
        first_kept, _ = kernels.archive_prune(F[:20], CV[:20], X[:20], 0)
        seeded_F = np.vstack([F[first_kept], F[20:]])
        seeded_CV = np.concatenate([CV[first_kept], CV[20:]])
        seeded_X = np.vstack([X[first_kept], X[20:]])
        kept, accepted = kernels.archive_prune(
            seeded_F, seeded_CV, seeded_X, len(first_kept)
        )
        expected_kept, expected_accepted = reference_archive_prune(
            seeded_F, seeded_CV, seeded_X, len(first_kept)
        )
        assert kept == expected_kept
        assert accepted == expected_accepted


class TestGoldenFront:
    def test_canned_experiment_front_is_bitwise_identical_to_pre_kernel_run(self):
        """``front.json`` of migration-ablation, recorded by the pre-refactor
        implementation, must be reproduced byte for byte by the kernels."""
        from repro.core.artifacts import record_run
        from repro.core.registry import get_experiment

        experiment = get_experiment("migration-ablation")
        params = {"population": 8, "generations": 4, "seed": 0}
        result = experiment.run(**params)
        with tempfile.TemporaryDirectory() as base:
            run_dir = record_run(experiment, result, params, base_dir=base)
            recorded = (Path(run_dir) / "front.json").read_text(encoding="utf-8")
        golden = GOLDEN_FRONT.read_text(encoding="utf-8")
        assert recorded == golden
        # Sanity: the golden file is a real front, not an empty stub.
        assert json.loads(golden)["objectives"]


class TestColumnarViews:
    def test_views_match_stacked_columns_and_are_cached(self):
        F, CV, _ = _random_case(4, n=12, feasibility="mixed")
        population = _population(F, CV)
        np.testing.assert_array_equal(population.F, F)
        np.testing.assert_array_equal(population.CV, CV)
        assert population.F is population.F  # cached between accesses

    def test_views_are_readonly(self):
        F, CV, _ = _random_case(4, n=6, feasibility="feasible")
        population = _population(F, CV)
        with pytest.raises(ValueError):
            population.F[0, 0] = 99.0
        with pytest.raises(ValueError):
            population.CV[0] = 99.0

    def test_mutation_invalidates_views(self):
        F, CV, _ = _random_case(4, n=6, feasibility="feasible")
        population = _population(F, CV)
        assert population.F.shape[0] == 6
        extra = Individual(np.zeros(2))
        extra.objectives = np.array([-5.0] * F.shape[1])
        population.append(extra)
        assert population.F.shape[0] == 7
        assert population.F[-1, 0] == -5.0
