"""Tests for the PMO2 framework."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.moo.metrics import inverted_generational_distance
from repro.moo.pmo2 import PMO2, PMO2Config
from repro.moo.testproblems import Schaffer, ZDT1
from repro.solve import MaxEvaluations, solve


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
            {"migration_interval": 0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            PMO2Config(**kwargs).validate()


class TestPaperConfiguration:
    def test_builds_two_nsga2_islands_with_broadcast(self):
        pmo2 = PMO2.paper_configuration(Schaffer(), seed=0, population_size=12)
        assert len(pmo2.archipelago.islands) == 2
        assert type(pmo2.archipelago.topology).__name__ == "AllToAllTopology"
        assert pmo2.archipelago.policy.interval == 200
        assert pmo2.archipelago.policy.rate == pytest.approx(0.5)


def _pmo2(problem, termination, seed, **config):
    """``solve()`` PMO2 on ``problem`` with the given config fields."""
    return solve(problem, "pmo2", config=PMO2Config(**config), seed=seed, termination=termination)


class TestRun:
    def test_run_returns_merged_front(self):
        result = _pmo2(Schaffer(), 10, 1, island_population_size=12, migration_interval=5)
        assert len(result.front) > 0
        assert result.generations == 10
        assert result.evaluations == 2 * 12 * 11  # two islands, init + 10 offspring rounds
        assert len(result.island_fronts) == 2

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
        igd = inverted_generational_distance(result.front_objectives(), problem.true_front())
        assert igd < 0.25

    def test_more_islands_supported(self):
        result = _pmo2(
            Schaffer(), 5, 5, n_islands=3, island_population_size=10, migration_interval=5
        )
        assert len(result.island_fronts) == 3
