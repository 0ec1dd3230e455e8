"""Tests for the Geobacter multi-objective flux-design problem."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.fba.batch import steady_state_violations
from repro.geobacter.analysis import representative_points, violation_reduction
from repro.geobacter.model_builder import (
    ATP_MAINTENANCE_FLUX,
    ATP_MAINTENANCE_ID,
    BIOMASS_ID,
    ELECTRON_PRODUCTION_ID,
    build_geobacter_model,
)
from repro.geobacter.problem import GeobacterDesignProblem
from repro.problems.registry import build_problem


@pytest.fixture(scope="module")
def shared_model():
    return build_geobacter_model()


@pytest.fixture(scope="module")
def problem(shared_model):
    return GeobacterDesignProblem(model=shared_model)


class TestProblemDefinition:
    def test_decision_space_is_the_full_flux_vector(self, problem):
        assert problem.n_var == 608
        assert problem.n_obj == 2
        assert problem.objective_names == ["electron_production", "biomass_production"]

    def test_atp_maintenance_pinned_in_bounds(self, problem):
        index = problem.model.reaction_index(ATP_MAINTENANCE_ID)
        assert problem.lower_bounds[index] == pytest.approx(ATP_MAINTENANCE_FLUX)
        assert problem.upper_bounds[index] == pytest.approx(ATP_MAINTENANCE_FLUX)

    def test_flux_cap_applied(self, problem):
        assert np.all(problem.upper_bounds <= 200.0 + 1e-9)
        assert np.all(problem.lower_bounds >= -200.0 - 1e-9)

    def test_invalid_flux_cap(self, shared_model):
        with pytest.raises(ConfigurationError):
            GeobacterDesignProblem(model=shared_model, flux_cap=0.0)

    def test_unknown_violation_norm_is_refused(self):
        with pytest.raises(ConfigurationError) as excinfo:
            build_problem("geobacter?violation_norm=bogus")
        assert all(norm in str(excinfo.value) for norm in ("l1", "l2", "linf"))

    def test_source_model_is_not_mutated(self, shared_model):
        GeobacterDesignProblem(model=shared_model, flux_cap=50.0)
        # The shared model keeps its original (wide) default bounds.
        assert any(r.upper_bound > 50.0 for r in shared_model.reactions)


class TestEvaluation:
    def test_random_vector_is_heavily_infeasible(self, problem):
        rng = np.random.default_rng(0)
        vector = rng.uniform(problem.lower_bounds, problem.upper_bounds)
        batch = problem.evaluate_matrix(vector[None, :])
        assert batch.total_violations[0] > 100.0
        violation = steady_state_violations(problem.model, vector[None, :], problem.violation_norm)
        assert violation[0] > 100.0
        assert batch.G[0, 0] == violation[0] - problem.violation_tolerance

    def test_fba_seed_is_feasible_and_productive(self, problem):
        seeds = problem.fba_seed_vectors(n_seeds=3)
        batch = problem.evaluate_matrix(seeds[0][None, :])
        assert batch.total_violations[0] == pytest.approx(0.0, abs=1e-6)
        assert -batch.F[0, 0] > 50.0

    def test_objectives_are_negated_productions(self, problem):
        seed = problem.fba_seed_vectors(n_seeds=2)[-1]
        batch = problem.evaluate_matrix(seed[None, :])
        assert batch.F[0, 0] == -seed[problem.model.reaction_index(ELECTRON_PRODUCTION_ID)]
        assert batch.F[0, 1] == -seed[problem.model.reaction_index(BIOMASS_ID)]

    def test_random_guess_violation_helper(self, problem):
        value = problem.random_guess_violation(seed=1, n_samples=3)
        assert value > 1000.0
        # One batched screen of the samples equals screening them one by one.
        rng = np.random.default_rng(1)
        rows = [rng.uniform(problem.lower_bounds, problem.upper_bounds) for _ in range(3)]
        looped = [
            steady_state_violations(problem.model, row[None, :], problem.violation_norm)[0]
            for row in rows
        ]
        assert value == float(np.mean(looped))

    def test_production_front_conversion(self, problem):
        minimized = np.array([[-150.0, -0.3], [-160.0, -0.1]])
        production = problem.production_front(minimized)
        assert production[:, 0] == pytest.approx([150.0, 160.0])
        assert production[:, 1] == pytest.approx([0.3, 0.1])


class TestSeeds:
    def test_seeds_span_the_growth_range(self, problem):
        seeds = problem.fba_seed_vectors(n_seeds=5)
        biomass_index = problem.model.reaction_index("BIOMASS")
        growth = [seed[biomass_index] for seed in seeds]
        # The epsilon-constraint sweep covers growth targets from zero up to
        # the maximal growth rate (each seed may exceed its target when
        # alternate optima exist, so only the spread is asserted).
        assert max(growth) > 0.25
        assert max(growth) - min(growth) > 0.1

    def test_seeds_trade_off_monotonically(self, problem):
        seeds = problem.fba_seed_vectors(n_seeds=5)
        electron_index = problem.model.reaction_index("FERED")
        biomass_index = problem.model.reaction_index("BIOMASS")
        growth = np.array([seed[biomass_index] for seed in seeds])
        electrons = np.array([seed[electron_index] for seed in seeds])
        order = np.argsort(growth)
        assert np.all(np.diff(electrons[order]) <= 1e-6)

    def test_seeded_population_size_and_feasibility(self, problem):
        rng = np.random.default_rng(1)
        population = problem.seeded_population(12, rng, n_seeds=4)
        assert len(population) == 12
        X = np.vstack([ind.x for ind in population[:4]])
        violations = problem.evaluate_matrix(X).total_violations
        assert all(v == pytest.approx(0.0, abs=1e-6) for v in violations)

    def test_minimum_seed_count(self, problem):
        with pytest.raises(ConfigurationError):
            problem.fba_seed_vectors(n_seeds=1)


class TestAnalysis:
    def test_representative_points_are_labelled_and_sorted(self):
        front = np.array([[150.0, 0.30], [155.0, 0.25], [160.0, 0.20], [162.0, 0.15], [164.0, 0.05]])
        points = representative_points(front, count=5)
        assert [p.label for p in points] == ["A", "B", "C", "D", "E"]
        electrons = [p.electron_production for p in points]
        assert electrons == sorted(electrons)

    def test_representative_points_filter_dominated(self):
        front = np.array([[150.0, 0.30], [140.0, 0.20], [160.0, 0.10]])
        points = representative_points(front, count=3)
        assert len(points) == 2  # the dominated (140, 0.20) point is dropped

    def test_violation_reduction(self):
        assert violation_reduction(1e6, 3.4e4) == pytest.approx(1 / 29.4, rel=0.01)
        with pytest.raises(ConfigurationError):
            violation_reduction(0.0, 1.0)

    def test_representative_points_shape_checks(self):
        with pytest.raises(ConfigurationError):
            representative_points(np.ones((3, 3)))
        with pytest.raises(ConfigurationError):
            representative_points(np.ones((3, 2)), count=0)
