"""Tests for the island-model archipelago driver."""

import pytest

from repro.exceptions import ConfigurationError
from repro.moo.archipelago import Archipelago, Island, MigrationPolicy
from repro.moo.moead import MOEAD, MOEADConfig
from repro.moo.nsga2 import NSGA2, NSGA2Config
from repro.moo.testproblems import Schaffer
from repro.moo.topology import AllToAllTopology, IsolatedTopology
from tests.helpers import solve_engine


def make_island(seed, population_size=12):
    return Island(
        NSGA2(Schaffer(), NSGA2Config(population_size=population_size), seed=seed)
    )


def run(archipelago, generations):
    """Drive a hand-built archipelago through ``solve()``."""
    return solve_engine(Schaffer(), archipelago, generations)


class TestMigrationPolicy:
    def test_defaults_match_paper(self):
        policy = MigrationPolicy()
        assert policy.interval == 200
        assert policy.rate == pytest.approx(0.5)
        policy.validate()

    @pytest.mark.parametrize(
        "kwargs",
        [{"interval": 0}, {"rate": 1.5}, {"rate": -0.1}, {"count": 0}],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            MigrationPolicy(**kwargs).validate()


class TestArchipelagoConstruction:
    def test_requires_islands(self):
        with pytest.raises(ConfigurationError):
            Archipelago([])

    def test_topology_size_must_match(self):
        with pytest.raises(ConfigurationError):
            Archipelago([make_island(0), make_island(1)], topology=AllToAllTopology(3))


class TestArchipelagoRun:
    def test_runs_and_merges_archives(self):
        islands = [make_island(0), make_island(1)]
        archipelago = Archipelago(
            islands, policy=MigrationPolicy(interval=5, rate=1.0, count=2), seed=3
        )
        result = run(archipelago, 10)
        assert result.generations == 10
        assert result.evaluations == sum(island.evaluations for island in islands)
        assert len(result.front) > 0
        assert len(result.extras["island_archives"]) == 2

    def test_migration_happens_on_schedule(self):
        islands = [make_island(0), make_island(1)]
        archipelago = Archipelago(
            islands, policy=MigrationPolicy(interval=3, rate=1.0, count=2), seed=3
        )
        run(archipelago, 9)
        assert archipelago.migrations == 3
        assert all(island.received_migrants > 0 for island in islands)

    def test_no_migration_with_isolated_topology(self):
        islands = [make_island(0), make_island(1)]
        archipelago = Archipelago(
            islands,
            topology=IsolatedTopology(2),
            policy=MigrationPolicy(interval=2, rate=1.0, count=2),
            seed=3,
        )
        run(archipelago, 6)
        assert all(island.received_migrants == 0 for island in islands)

    def test_zero_migration_rate_sends_nothing(self):
        islands = [make_island(0), make_island(1)]
        archipelago = Archipelago(
            islands, policy=MigrationPolicy(interval=2, rate=0.0, count=2), seed=3
        )
        run(archipelago, 6)
        assert all(island.received_migrants == 0 for island in islands)

    def test_negative_generations_rejected(self):
        archipelago = Archipelago([make_island(0)])
        with pytest.raises(ConfigurationError):
            run(archipelago, -1)

    def test_merged_archive_is_non_dominated(self):
        from repro.moo import kernels

        archipelago = Archipelago(
            [make_island(0), make_island(1)],
            policy=MigrationPolicy(interval=4, rate=0.5, count=2),
            seed=9,
        )
        result = run(archipelago, 8)
        matrix = result.archive.F
        assert not kernels.domination_matrix(matrix).any()

    def test_mixed_engine_archipelago(self):
        """The framework 'encloses two optimization algorithms': NSGA-II and MOEA/D."""
        nsga_island = make_island(0)
        moead_island = Island(
            MOEAD(Schaffer(), MOEADConfig(population_size=12, neighborhood_size=4), seed=1),
            name="moead",
        )
        archipelago = Archipelago(
            [nsga_island, moead_island],
            policy=MigrationPolicy(interval=3, rate=1.0, count=2),
            seed=2,
        )
        result = run(archipelago, 6)
        assert len(result.front) > 0
        assert moead_island.received_migrants > 0

    def test_history_is_recorded(self):
        archipelago = Archipelago([make_island(0)], topology=IsolatedTopology(1), seed=0)
        result = run(archipelago, 4)
        assert len(result.history) == 4
        assert result.history[-1]["generation"] == 4
