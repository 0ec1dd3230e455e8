"""Tests for the PMO2 framework."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.moo.metrics import inverted_generational_distance
from repro.moo.archipelago import Archipelago, PMO2Config
from repro.moo.nsga2 import NSGA2
from repro.moo.testproblems import Schaffer, ZDT1
from repro.runtime.evaluator import SerialEvaluator
from repro.solve import MaxEvaluations, get_solver, solve
from tests.oracles.fronts import true_front


class TestConfig:
    def test_defaults_follow_paper(self):
        config = PMO2Config()
        assert config.n_islands == 2
        assert config.migration_interval == 200
        assert config.migration_rate == pytest.approx(0.5)
        assert config.topology == "all-to-all"
        config.validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_islands": 0},
            {"island_population_size": 3},
            {"island_population_size": 13},
            {"migration_rate": 1.2},
            {"migration_rate": -0.1},
            {"migration_interval": 0},
            {"migration_count": 0},
            {"topology": "ring"},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            PMO2Config(**kwargs).validate()


class TestPaperConfiguration:
    def test_builds_two_nsga2_islands_with_broadcast(self):
        archipelago = Archipelago(Schaffer(), PMO2Config(island_population_size=12), seed=0)
        assert [type(island) for island in archipelago.islands] == [NSGA2, NSGA2]
        assert archipelago.destinations == [[1], [0]]
        assert archipelago.config.migration_interval == 200
        assert archipelago.config.migration_rate == pytest.approx(0.5)


def _build(seed=0, **config):
    return Archipelago(Schaffer(), PMO2Config(island_population_size=8, **config), seed=seed)


def _generator_states(archipelago):
    return [island.rng.bit_generator.state for island in archipelago.islands] + [
        archipelago.rng.bit_generator.state
    ]


class TestArchipelagoBuild:
    def test_is_the_registered_pmo2_factory(self):
        assert get_solver("pmo2").factory is Archipelago

    def test_islands_follow_the_config(self):
        archipelago = _build(n_islands=3)
        assert len(archipelago.islands) == 3
        assert all(island.config.population_size == 8 for island in archipelago.islands)

    def test_seed_fixes_every_island_and_the_driver(self):
        assert _generator_states(_build(seed=5)) == _generator_states(_build(seed=5))
        states = _generator_states(_build(seed=5))
        assert states != _generator_states(_build(seed=6))
        # Each island and the migration driver draw from their own stream.
        assert len({str(state) for state in states}) == len(states)

    def test_archive_capacity_reaches_every_island(self):
        archipelago = _build(archive_capacity=10)
        assert all(island.config.archive_capacity == 10 for island in archipelago.islands)

    def test_one_evaluator_is_shared_by_every_island(self):
        evaluator = SerialEvaluator()
        archipelago = Archipelago(
            Schaffer(), PMO2Config(island_population_size=8), seed=0, evaluator=evaluator
        )
        assert archipelago.evaluator is evaluator
        assert all(island.evaluator is evaluator for island in archipelago.islands)

    def test_invalid_config_rejected_before_building(self):
        with pytest.raises(ConfigurationError):
            _build(n_islands=0)

    def test_isolated_islands_have_no_destinations(self):
        assert _build(n_islands=3, topology="isolated").destinations == [[], [], []]

    def test_unknown_topology_rejected(self):
        with pytest.raises(ConfigurationError, match="topology must be one of"):
            _build(topology="mesh")


def _pmo2(problem, termination, seed, **config):
    """``solve()`` PMO2 on ``problem`` with the given config fields."""
    return solve(problem, "pmo2", config=PMO2Config(**config), seed=seed, termination=termination)


class TestRun:
    def test_run_returns_merged_front(self):
        result = _pmo2(Schaffer(), 10, 1, island_population_size=12, migration_interval=5)
        assert len(result.front) > 0
        assert result.generations == 10
        assert result.evaluations == 2 * 12 * 11  # two islands, init + 10 offspring rounds
        assert len(result.extras["island_fronts"]) == 2

    def test_front_matrices_are_consistent(self):
        result = _pmo2(Schaffer(), 5, 1, island_population_size=12, migration_interval=5)
        objectives = result.front_objectives()
        decisions = result.front_decisions()
        assert objectives.shape[0] == decisions.shape[0]
        assert objectives.shape[1] == 2

    def test_run_evaluations_budget(self):
        result = _pmo2(
            Schaffer(), MaxEvaluations(500), 2, island_population_size=12, migration_interval=5
        )
        assert result.evaluations >= 500
        # The overshoot is bounded by one generation of both islands.
        assert result.evaluations <= 500 + 2 * 2 * 12

    def test_run_evaluations_requires_positive_budget(self):
        with pytest.raises(ConfigurationError):
            _pmo2(Schaffer(), MaxEvaluations(0), 0, island_population_size=12)

    def test_migrations_are_counted(self):
        result = _pmo2(Schaffer(), 12, 3, island_population_size=12, migration_interval=4)
        assert result.migrations == 3

    def test_seed_reproducibility(self):
        config = dict(island_population_size=12, migration_interval=4)
        a = _pmo2(Schaffer(), 6, 7, **config).front_objectives()
        b = _pmo2(Schaffer(), 6, 7, **config).front_objectives()
        assert np.allclose(np.sort(a, axis=0), np.sort(b, axis=0))

    def test_converges_on_zdt1(self):
        problem = ZDT1(n_var=8)
        result = _pmo2(problem, 40, 4, island_population_size=20, migration_interval=10)
        igd = inverted_generational_distance(result.front_objectives(), true_front(problem))
        assert igd < 0.25

    def test_more_islands_supported(self):
        result = _pmo2(
            Schaffer(), 5, 5, n_islands=3, island_population_size=10, migration_interval=5
        )
        assert len(result.extras["island_fronts"]) == 3
