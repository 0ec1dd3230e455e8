"""Tests for the PMO2 framework."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.moo.metrics import inverted_generational_distance
from repro.moo.pmo2 import PMO2Config, build_pmo2
from repro.moo.testproblems import Schaffer, ZDT1
from repro.moo.topology import (
    AllToAllTopology,
    IsolatedTopology,
)
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
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            PMO2Config(**kwargs).validate()


class TestPaperConfiguration:
    def test_builds_two_nsga2_islands_with_broadcast(self):
        archipelago = build_pmo2(Schaffer(), PMO2Config(island_population_size=12), seed=0)
        assert len(archipelago.islands) == 2
        assert isinstance(archipelago.topology, AllToAllTopology)
        assert archipelago.policy.interval == 200
        assert archipelago.policy.rate == pytest.approx(0.5)


def _build(seed=0, **config):
    return build_pmo2(Schaffer(), PMO2Config(island_population_size=8, **config), seed=seed)


def _generator_states(archipelago):
    return [island.optimizer.rng.bit_generator.state for island in archipelago.islands] + [
        archipelago.rng.bit_generator.state
    ]


class TestBuildPMO2:
    def test_is_the_registered_pmo2_factory(self):
        assert get_solver("pmo2").factory is build_pmo2

    def test_islands_are_nsga2_named_by_index(self):
        archipelago = _build(n_islands=3)
        assert [island.name for island in archipelago.islands] == ["nsga2-0", "nsga2-1", "nsga2-2"]
        assert all(
            island.optimizer.config.population_size == 8 for island in archipelago.islands
        )

    def test_seed_fixes_every_island_and_the_driver(self):
        assert _generator_states(_build(seed=5)) == _generator_states(_build(seed=5))
        states = _generator_states(_build(seed=5))
        assert states != _generator_states(_build(seed=6))
        # Each island and the migration driver draw from their own stream.
        assert len({str(state) for state in states}) == len(states)

    def test_policy_follows_the_config(self):
        policy = _build(migration_interval=3, migration_rate=0.25, migration_count=2).policy
        assert (policy.interval, policy.rate, policy.count) == (3, 0.25, 2)

    def test_archive_capacity_reaches_every_island(self):
        archipelago = _build(archive_capacity=10)
        assert all(island.optimizer.config.archive_capacity == 10 for island in archipelago.islands)

    def test_one_evaluator_is_shared_by_every_island(self):
        evaluator = SerialEvaluator()
        archipelago = build_pmo2(
            Schaffer(), PMO2Config(island_population_size=8), seed=0, evaluator=evaluator
        )
        assert all(island.optimizer.evaluator is evaluator for island in archipelago.islands)

    def test_invalid_config_rejected_before_building(self):
        with pytest.raises(ConfigurationError):
            _build(n_islands=0)

    @pytest.mark.parametrize(
        "name,topology_class",
        [
            ("all-to-all", AllToAllTopology),
            ("isolated", IsolatedTopology),
        ],
    )
    def test_topology_is_built_by_name(self, name, topology_class):
        archipelago = _build(n_islands=3, topology=name)
        assert isinstance(archipelago.topology, topology_class)
        assert archipelago.topology.n_islands == 3

    def test_unknown_topology_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown topology"):
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
