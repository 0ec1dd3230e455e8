"""Tests for the NSGA-II optimizer."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.moo import kernels, nsga2
from repro.moo.archive import ParetoArchive
from repro.moo.individual import Individual, Population
from repro.moo.metrics import inverted_generational_distance
from repro.moo.nsga2 import NSGA2, NSGA2Config, assign_ranks_and_crowding
from repro.moo.testproblems import ConstrainedBNH, Schaffer, ZDT1
from repro.solve import CallbackObserver, solve
from tests.helpers import solve_engine
from tests.oracles.budget import BudgetCounting
from tests.oracles.fronts import true_front


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
            {"crossover_eta": 0.0},
            {"crossover_eta": -1.0},
            {"mutation_eta": 0.0},
            {"mutation_eta": float("nan")},
        ],
    )
    def test_invalid_configurations_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            NSGA2Config(**kwargs).validate()

    @pytest.mark.parametrize("field", ["crossover_eta", "mutation_eta"])
    def test_nonpositive_eta_fails_before_any_evaluation(self, field):
        problem = BudgetCounting(ZDT1())
        with pytest.raises(ConfigurationError, match=field):
            NSGA2(problem, NSGA2Config(**{field: 0}))
        with pytest.raises(ConfigurationError, match=field):
            solve(problem, "nsga2", seed=0, termination=2, **{field: 0.0})
        assert problem.evaluations == 0


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
        from repro.moo import kernels

        result = solve(Schaffer(), "nsga2", population_size=16, seed=1, termination=10)
        matrix = result.archive.F
        assert not kernels.domination_matrix(matrix).any()

    def test_converges_towards_schaffer_front(self):
        problem = Schaffer()
        result = solve(problem, "nsga2", population_size=40, seed=2, termination=40)
        front = result.archive.F
        igd = inverted_generational_distance(front, true_front(problem))
        assert igd < 0.2

    def test_seed_reproducibility(self):
        results = [
            solve(Schaffer(), "nsga2", population_size=16, seed=42, termination=8)
            .archive.F
            for _ in range(2)
        ]
        assert np.allclose(results[0], results[1])

    def test_different_seeds_differ(self):
        a = solve(ZDT1(n_var=6), "nsga2", population_size=16, seed=1, termination=5)
        b = solve(ZDT1(n_var=6), "nsga2", population_size=16, seed=2, termination=5)
        assert not np.allclose(
            a.population.X, b.population.X
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
        feasible_fraction = np.mean(result.population.CV == 0.0)
        assert feasible_fraction > 0.8


def _nsga2(seed, generations):
    """A 16-individual NSGA-II on Schaffer, run for ``generations``."""
    problem = Schaffer()
    optimizer = NSGA2(problem, NSGA2Config(population_size=16), seed=seed)
    solve_engine(problem, optimizer, generations)
    return optimizer


class TestMigrationHooks:
    def test_emigrants_are_copies_of_best(self):
        optimizer = _nsga2(5, 3)
        migrants = optimizer.emigrants(3)
        assert migrants.rank.tolist() == [0, 0, 0]
        migrants.rank[:] = 7
        assert 7 not in optimizer.population.rank

    def test_immigrate_keeps_population_size_and_absorbs_migrants(self):
        donor = _nsga2(6, 5)
        receiver = _nsga2(7, 1)
        migrants = donor.emigrants(4)
        receiver.immigrate(migrants)
        assert len(receiver.population) == 16

    def test_immigrate_with_no_migrants_keeps_the_population(self):
        optimizer = _nsga2(8, 1)
        before = optimizer.population.X
        optimizer.immigrate(Population())
        assert before.tobytes() == optimizer.population.X.tobytes()


def _double_sort_selection(union, population_size):
    """Environmental selection that re-sorts the survivors from scratch."""
    fronts = assign_ranks_and_crowding(union)
    survivors = Population()
    for front in fronts:
        if len(survivors) + len(front) <= population_size:
            survivors.extend(union[i] for i in front)
        else:
            remaining = population_size - len(survivors)
            crowding = np.array([union[i].crowding for i in front])
            order = kernels.crowding_truncation_order(crowding)
            survivors.extend(union[front[k]] for k in order[:remaining])
            break
    assign_ranks_and_crowding(survivors)
    return survivors


def _union(F, CV):
    individuals = []
    for index, (objectives, violation) in enumerate(zip(F, CV)):
        individual = Individual(np.array([float(index)]))
        individual.objectives = np.array(objectives, dtype=float)
        individual.constraint_violation = float(violation)
        individuals.append(individual)
    return Population(individuals)


def _selection_record(population):
    return [
        (x.tobytes(), rank, np.float64(crowding).tobytes())
        for x, rank, crowding in zip(population.X, population.rank.tolist(), population.crowding)
    ]


@st.composite
def tied_unions(draw):
    """A 2N-row union on a coarse grid: duplicate rows and ties everywhere."""
    size = draw(st.sampled_from([4, 6, 8, 16]))
    n_obj = draw(st.integers(1, 3))
    grid = st.sampled_from([0.0, 1.0, 2.0, 3.0])
    row = st.lists(grid, min_size=n_obj, max_size=n_obj)
    F = draw(st.lists(row, min_size=2 * size, max_size=2 * size))
    violation = st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0])
    CV = draw(st.lists(violation, min_size=2 * size, max_size=2 * size))
    return size, F, CV


class TestSingleSortSelection:
    """One sort of the union gives the survivors the double sort's rank and crowding."""

    @given(tied_unions())
    @settings(max_examples=300, deadline=None)
    def test_matches_double_sort_bitwise(self, case):
        size, F, CV = case
        engine = NSGA2(Schaffer(), NSGA2Config(population_size=size))
        survivors = engine._environmental_selection(_union(F, CV))
        expected = _double_sort_selection(_union(F, CV), size)
        assert _selection_record(survivors) == _selection_record(expected)

    def test_truncated_later_front_follows_last_dominator_order(self):
        # Front 0 is rows 8 and 10.  Front 1 is rows 2 and 6 (released by
        # row 8) and 4, 5 and 9 (released by row 10).  Truncating it to four
        # keeps 2, 4, 9, 6 in crowding order; a re-sort of the survivors
        # lists them 2, 6, 4, 9.  Rows 4 and 6 tie at 3 in the third
        # objective, so the one listed last is its upper boundary.
        F = [
            [1.0, 2.0, 3.0], [1.0, 3.0, 3.0], [3.0, 0.0, 1.0], [1.0, 2.0, 3.0],
            [0.0, 1.0, 3.0], [1.0, 1.0, 1.0], [2.0, 0.0, 3.0], [3.0, 2.0, 3.0],
            [2.0, 0.0, 1.0], [1.0, 3.0, 0.0], [0.0, 1.0, 0.0], [3.0, 3.0, 3.0],
        ]  # fmt: skip
        CV = [0.0] * len(F)
        engine = NSGA2(Schaffer(), NSGA2Config(population_size=6))
        survivors = engine._environmental_selection(_union(F, CV))
        expected = _double_sort_selection(_union(F, CV), 6)
        assert [int(ind.x[0]) for ind in survivors] == [8, 10, 2, 4, 9, 6]
        assert survivors[-1].crowding == expected[-1].crowding < np.inf
        assert _selection_record(survivors) == _selection_record(expected)


class TestCallPoints:
    """The names perfbench's layer table wraps are called every generation.

    ``perfbench/tracing.py`` times variation through ``nsga2``'s
    ``binary_tournament``, ``sbx_crossover`` and ``polynomial_mutation``,
    evaluation through ``Population.evaluate`` and the archive through
    ``ParetoArchive.add_population``; a refactor that stops calling one of
    them would move its time into another layer without any error.
    """

    @pytest.mark.parametrize("size", [4, 8, 20])
    def test_one_generation_calls_each_point_per_pair_child_and_batch(self, size, monkeypatch):
        calls, offered = Counter(), []

        def counting(owner, name):
            function = owner.__dict__[name]

            def wrapper(*args, **kwargs):
                calls[name] += 1
                if name == "add_population":
                    offered.append(len(args[1]))
                return function(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        engine = NSGA2(ZDT1(n_var=5), NSGA2Config(population_size=size), seed=1)
        engine.initialize()
        for name in ("binary_tournament", "sbx_crossover", "polynomial_mutation"):
            counting(nsga2, name)
        counting(Population, "evaluate")
        counting(ParetoArchive, "add_population")
        for generation in range(1, 3):
            engine.step()
            assert calls == {
                "binary_tournament": generation * size,
                "sbx_crossover": generation * size // 2,
                "polynomial_mutation": generation * size,
                "evaluate": generation,
                "add_population": generation,
            }
        assert offered == [size, size]
