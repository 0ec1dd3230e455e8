"""Tests for the bounded non-dominated archive."""

import pickle

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.moo import kernels
from repro.moo.archive import ParetoArchive
from repro.moo.individual import Individual


def make(objectives, violation=0.0, x=None):
    individual = Individual(np.asarray(x if x is not None else objectives, dtype=float))
    individual.objectives = np.asarray(objectives, dtype=float)
    individual.constraint_violation = max(violation, 0.0)
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
        assert not kernels.domination_matrix(archive.F).any()

    def test_capacity_truncation_keeps_extremes(self):
        archive = ParetoArchive(capacity=5)
        xs = np.linspace(0.0, 1.0, 30)
        for x in xs:
            archive.add(make([x, 1.0 - x]))
        assert len(archive) == 5
        matrix = archive.F
        assert matrix[:, 0].min() == pytest.approx(0.0)
        assert matrix[:, 0].max() == pytest.approx(1.0)


class TestArchiveViews:
    def test_population_and_matrices(self):
        archive = ParetoArchive()
        archive.add(make([1.0, 2.0], x=[0.1, 0.2]))
        archive.add(make([2.0, 1.0], x=[0.3, 0.4]))
        population = archive.to_population()
        assert len(population) == 2
        assert archive.F.shape == (2, 2)
        assert archive.X.shape == (2, 2)
        assert archive.CV.shape == (2,)
        np.testing.assert_array_equal(population.F, archive.F)

    def test_empty_archive_matrices(self):
        archive = ParetoArchive()
        assert archive.F.shape == (0, 0)
        assert archive.X.shape == (0, 0)
        assert archive.CV.shape == (0,)

    def test_views_are_read_only_and_follow_the_members(self):
        archive = ParetoArchive()
        archive.add(make([1.0, 2.0]))
        first = archive.F
        assert archive.F is first
        with pytest.raises(ValueError):
            first[0, 0] = 0.0
        archive.add(make([2.0, 1.0]))
        assert archive.F.tolist() == [[1.0, 2.0], [2.0, 1.0]]
        archive.add(make([0.5, 0.5]))
        assert archive.F.tolist() == [[0.5, 0.5]]

    def test_add_and_add_population_do_not_call_each_other(self, monkeypatch):
        archive = ParetoArchive()

        def forbidden(*args, **kwargs):
            raise AssertionError("one insertion entry point called the other")

        monkeypatch.setattr(ParetoArchive, "add_population", forbidden)
        assert archive.add(make([1.0, 2.0]))
        monkeypatch.undo()
        monkeypatch.setattr(ParetoArchive, "add", forbidden)
        assert archive.add_population([make([2.0, 1.0]), make([3.0, 3.0])]) == 1
        assert len(archive) == 2

    def test_pickle_round_trip_keeps_members_and_views(self):
        archive = ParetoArchive(capacity=4)
        archive.add_population([make([1.0, 2.0], violation=0.0), make([2.0, 1.0])])
        clone = pickle.loads(pickle.dumps(archive))
        assert clone.capacity == 4
        np.testing.assert_array_equal(clone.F, archive.F)
        np.testing.assert_array_equal(clone.X, archive.X)
        assert clone.add(make([0.5, 0.5]))
        assert len(clone) == 1 and len(archive) == 2

    def test_clear(self):
        archive = ParetoArchive()
        archive.add(make([1.0, 1.0]))
        archive.clear()
        assert len(archive) == 0

    def test_add_population_returns_inserted_count(self):
        archive = ParetoArchive()
        members = [make([1.0, 2.0]), make([2.0, 1.0]), make([3.0, 3.0])]
        assert archive.add_population(members) == 2
