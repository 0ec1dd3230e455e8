"""Tests for the bounded non-dominated archive."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.moo.archive import ParetoArchive
from repro.moo.dominance import dominates
from repro.moo.individual import Individual
from repro.problems import EvaluationResult


def make(objectives, violation=0.0, x=None):
    individual = Individual(np.asarray(x if x is not None else objectives, dtype=float))
    individual.set_evaluation(
        EvaluationResult(
            objectives=np.asarray(objectives, dtype=float),
            constraint_violations=np.array([violation]),
        )
    )
    return individual


class TestArchiveBasics:
    def test_rejects_unevaluated_individual(self):
        archive = ParetoArchive()
        with pytest.raises(ConfigurationError):
            archive.add(Individual(np.zeros(1)))

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ConfigurationError):
            ParetoArchive(capacity=0)

    def test_add_keeps_non_dominated_only(self):
        archive = ParetoArchive()
        assert archive.add(make([2.0, 2.0]))
        assert archive.add(make([1.0, 3.0]))
        assert not archive.add(make([3.0, 3.0]))  # dominated
        assert len(archive) == 2

    def test_adding_dominating_point_removes_dominated_members(self):
        archive = ParetoArchive()
        archive.add(make([2.0, 2.0]))
        archive.add(make([3.0, 1.0]))
        assert archive.add(make([1.0, 0.5]))
        assert len(archive) == 1
        assert archive[0].objectives == pytest.approx([1.0, 0.5])

    def test_duplicates_are_not_stored_twice(self):
        archive = ParetoArchive()
        assert archive.add(make([1.0, 1.0], x=[0.5]))
        assert not archive.add(make([1.0, 1.0], x=[0.5]))
        assert len(archive) == 1

    def test_members_are_copies(self):
        archive = ParetoArchive()
        original = make([1.0, 1.0])
        archive.add(original)
        original.objectives[0] = 99.0
        assert archive[0].objectives[0] == 1.0

    def test_infeasible_dominated_by_feasible(self):
        archive = ParetoArchive()
        archive.add(make([5.0, 5.0], violation=0.0))
        assert not archive.add(make([0.0, 0.0], violation=1.0))
        assert len(archive) == 1


class TestArchiveInvariant:
    def test_archive_is_mutually_non_dominated_after_random_inserts(self):
        rng = np.random.default_rng(0)
        archive = ParetoArchive()
        for _ in range(200):
            archive.add(make(rng.random(2)))
        matrix = archive.objective_matrix()
        for i in range(matrix.shape[0]):
            for j in range(matrix.shape[0]):
                if i != j:
                    assert not dominates(matrix[i], matrix[j])

    def test_capacity_truncation_keeps_extremes(self):
        archive = ParetoArchive(capacity=5)
        xs = np.linspace(0.0, 1.0, 30)
        for x in xs:
            archive.add(make([x, 1.0 - x]))
        assert len(archive) == 5
        matrix = archive.objective_matrix()
        assert matrix[:, 0].min() == pytest.approx(0.0)
        assert matrix[:, 0].max() == pytest.approx(1.0)


class TestArchiveViews:
    def test_population_and_matrices(self):
        archive = ParetoArchive()
        archive.add(make([1.0, 2.0], x=[0.1, 0.2]))
        archive.add(make([2.0, 1.0], x=[0.3, 0.4]))
        population = archive.to_population()
        assert len(population) == 2
        assert archive.objective_matrix().shape == (2, 2)
        assert archive.decision_matrix().shape == (2, 2)

    def test_empty_archive_matrices(self):
        archive = ParetoArchive()
        assert archive.objective_matrix().size == 0
        assert archive.decision_matrix().size == 0

    def test_clear(self):
        archive = ParetoArchive()
        archive.add(make([1.0, 1.0]))
        archive.clear()
        assert len(archive) == 0

    def test_add_population_returns_inserted_count(self):
        archive = ParetoArchive()
        members = [make([1.0, 2.0]), make([2.0, 1.0]), make([3.0, 3.0])]
        assert archive.add_population(members) == 2
