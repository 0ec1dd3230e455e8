"""Tests for the PMO2 archipelago's migration."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.moo import kernels
from repro.moo.archipelago import Archipelago, PMO2Config
from repro.moo.individual import Population
from repro.moo.nsga2 import NSGA2, NSGA2Config
from repro.moo.testproblems import Schaffer, ZDT1
from repro.runtime.evaluator import SerialEvaluator
from repro.solve import solve
from tests.helpers import solve_engine
from tests.oracles.budget import BudgetCounting


def _pmo2(generations, seed=3, problem=None, **config):
    """``solve()`` PMO2 with 12-row islands on ``problem`` (Schaffer by default)."""
    config.setdefault("island_population_size", 12)
    return solve(
        problem or Schaffer(), "pmo2", seed=seed, termination=generations, **config
    )


def _island_seeds(seed, n_islands):
    """The NSGA-II seeds an archipelago of ``n_islands`` derives from ``seed``."""
    children = np.random.SeedSequence(seed).spawn(n_islands + 1)[:n_islands]
    return [int(child.generate_state(1)[0]) for child in children]


def _independent_archives(problem, seed, generations, n_islands, **island_config):
    """Each island's archive as a NSGA-II solve of its own seed would leave it."""
    return [
        solve(
            problem, "nsga2", seed=island_seed, termination=generations, **island_config
        ).archive
        for island_seed in _island_seeds(seed, n_islands)
    ]


def _same_rows(a, b):
    return all(getattr(a, f).tobytes() == getattr(b, f).tobytes() for f in ("X", "F", "CV"))


class TestMigrationPolicy:
    def test_defaults_match_paper(self):
        config = PMO2Config()
        assert (config.n_islands, config.topology) == (2, "all-to-all")
        assert config.migration_interval == 200
        assert config.migration_rate == pytest.approx(0.5)
        config.validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"migration_interval": 0},
            {"migration_rate": 1.5},
            {"migration_rate": -0.1},
            {"migration_count": 0},
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        problem = BudgetCounting(Schaffer())
        (field,) = kwargs
        with pytest.raises(ConfigurationError, match=field):
            solve(problem, "pmo2", seed=0, termination=2, island_population_size=8, **kwargs)
        assert problem.evaluations == 0


class TestMigrationAgainstIndependentIslands:
    """Without migration the islands are the NSGA-II runs of their seeds."""

    @pytest.mark.parametrize(
        "config",
        [
            dict(topology="isolated", migration_rate=1.0),
            dict(migration_rate=0.0),
            dict(n_islands=3, topology="isolated", archive_capacity=6),
        ],
        ids=["isolated", "rate-0", "isolated-3-capped"],
    )
    def test_no_migration_equals_independent_solves(self, config):
        problem = ZDT1(n_var=6)
        result = _pmo2(8, seed=11, problem=problem, migration_interval=2, **config)
        independent = _independent_archives(
            problem, 11, 8, config.get("n_islands", 2),
            population_size=12, archive_capacity=config.get("archive_capacity"),
        )
        assert len(result.extras["island_archives"]) == len(independent)
        for island, reference in zip(result.extras["island_archives"], independent):
            assert _same_rows(island.to_population(), reference.to_population())

    def test_migration_departs_from_independent_solves(self):
        problem = ZDT1(n_var=6)
        result = _pmo2(8, seed=11, problem=problem, migration_interval=2, migration_rate=1.0)
        independent = _independent_archives(problem, 11, 8, 2, population_size=12)
        assert result.migrations == 4
        assert not all(
            _same_rows(island.to_population(), reference.to_population())
            for island, reference in zip(result.extras["island_archives"], independent)
        )


class TestMigrants:
    """Migrants travel as population rows, best first; the worst rows make way."""

    @staticmethod
    def _engine(seed=0, size=12):
        engine = NSGA2(ZDT1(n_var=4), NSGA2Config(population_size=size), seed=seed)
        engine.initialize()
        engine.step()
        return engine

    @staticmethod
    def _reference_order(population):
        """Rows sorted by (rank, -crowding), ties in row order."""
        return sorted(
            range(len(population)),
            key=lambda i: (max(int(population.rank[i]), 0), -population.crowding[i]),
        )

    def test_emigrants_are_the_best_rows_in_order(self):
        engine = self._engine()
        migrants = engine.emigrants(5)
        expected = engine.population.take(self._reference_order(engine.population)[:5])
        assert len(migrants) == 5 and _same_rows(migrants, expected)
        assert migrants.rank.tolist() == expected.rank.tolist()

    def test_unranked_rows_count_as_rank_zero_and_ties_keep_row_order(self):
        engine = self._engine()
        engine.population.rank[:] = -1
        engine.population.crowding[:] = 1.0
        engine.population.crowding[[3, 7]] = np.inf
        assert engine._best_first().tolist()[:3] == [3, 7, 0]

    def test_immigrate_replaces_the_worst_rows(self):
        engine, source = self._engine(seed=0), self._engine(seed=1)
        before = engine.population.copy()
        inbound = source.emigrants(3)
        worst = self._reference_order(before)[::-1][:3]
        engine.immigrate(inbound)
        X = before.X.copy()
        X[worst] = inbound.X
        assert engine.population.X.tobytes() == X.tobytes()
        expected = Population.from_matrix(X)
        expected.evaluate(engine.problem, SerialEvaluator())
        assert _same_rows(engine.population, expected)

    def test_more_immigrants_than_rows_fill_the_island_in_order(self):
        engine, source = self._engine(seed=0, size=4), self._engine(seed=1, size=8)
        worst_first = self._reference_order(engine.population)[::-1]
        inbound = source.emigrants(6)
        engine.immigrate(inbound)
        # Every row is replaced: the worst by the first migrant, and so on.
        assert engine.population.X[worst_first].tobytes() == inbound.X[:4].tobytes()


class TestArchipelagoRun:
    def test_runs_and_merges_archives(self):
        result = _pmo2(10, migration_interval=5, migration_rate=1.0, migration_count=2)
        assert result.generations == 10
        assert result.evaluations == 2 * 12 * 11
        assert len(result.front) > 0
        assert len(result.extras["island_archives"]) == 2

    def test_migration_happens_on_schedule(self):
        result = _pmo2(9, migration_interval=3, migration_rate=1.0, migration_count=2)
        assert result.migrations == 3

    @staticmethod
    def _stepped(**config):
        """A 12-row, 2-migrant archipelago two generations in (no migration yet)."""
        archipelago = Archipelago(
            Schaffer(), PMO2Config(island_population_size=12, migration_count=2, **config), seed=3
        )
        for _ in range(2):
            archipelago.step()
        return archipelago

    def _assert_migration_moves_nothing(self, archipelago):
        before = [island.population.copy() for island in archipelago.islands]
        assert archipelago.migrate() == 0
        for island, population in zip(archipelago.islands, before):
            assert _same_rows(island.population, population)

    def test_no_migration_with_isolated_topology(self):
        self._assert_migration_moves_nothing(
            self._stepped(topology="isolated", migration_rate=1.0)
        )

    def test_zero_migration_rate_sends_nothing(self):
        self._assert_migration_moves_nothing(self._stepped(migration_rate=0.0))

    def test_full_rate_sends_each_island_the_others_best_rows(self):
        archipelago = self._stepped(migration_rate=1.0)
        outgoing = [island.emigrants(2) for island in archipelago.islands]
        assert archipelago.migrate() == 2
        for island, migrants in zip(archipelago.islands, outgoing[::-1]):
            rows = {row.tobytes() for row in island.population.X}
            assert all(row.tobytes() in rows for row in migrants.X)

    def test_negative_generations_rejected(self):
        with pytest.raises(ConfigurationError):
            _pmo2(-1)

    def test_merged_archive_is_non_dominated(self):
        result = _pmo2(8, seed=9, migration_interval=4, migration_count=2)
        assert not kernels.domination_matrix(result.archive.F).any()

    def test_history_is_recorded(self):
        engine = Archipelago(
            Schaffer(), PMO2Config(n_islands=1, island_population_size=12), seed=0
        )
        result = solve_engine(Schaffer(), engine, 4)
        assert len(result.history) == 4
        assert result.history[-1]["generation"] == 4
