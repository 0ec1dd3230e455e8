"""Tests for the photosynthesis multi-objective design problems."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.photosynthesis.conditions import REFERENCE_CONDITION, condition
from repro.photosynthesis.enzymes import natural_activities
from repro.photosynthesis.nitrogen import NATURAL_NITROGEN
from repro.photosynthesis.problem import PhotosynthesisProblem, RobustPhotosynthesisProblem
from repro.solve import solve


@pytest.fixture
def problem():
    return PhotosynthesisProblem(condition("present", "low"))


class TestProblemDefinition:
    def test_dimensions_match_paper(self, problem):
        assert problem.n_var == 23
        assert problem.n_obj == 2
        assert problem.objective_names == ["co2_uptake", "nitrogen"]

    def test_bounds_are_scaled_natural_activities(self, problem):
        natural = natural_activities()
        assert problem.lower_bounds == pytest.approx(natural * 0.05)
        assert problem.upper_bounds == pytest.approx(natural * 3.0)

    def test_invalid_scales_rejected(self):
        with pytest.raises(ConfigurationError):
            PhotosynthesisProblem(lower_scale=0.0)
        with pytest.raises(ConfigurationError):
            PhotosynthesisProblem(lower_scale=2.0, upper_scale=1.0)

    def test_evaluation_signs(self, problem):
        natural = natural_activities()
        batch = problem.evaluate_matrix(natural[None, :])
        # First objective is the negated uptake, second the nitrogen.
        assert batch.F[0, 0] == pytest.approx(-problem.uptake(natural))
        assert batch.F[0, 1] == pytest.approx(NATURAL_NITROGEN)
        assert batch.info_at(0)["co2_uptake"] > 0.0

    def test_natural_point(self, problem):
        uptake, nitrogen = problem.natural_point()
        assert uptake == pytest.approx(15.486, rel=0.10)
        assert nitrogen == pytest.approx(NATURAL_NITROGEN)

    def test_reported_front_flips_uptake_sign(self, problem):
        minimized = np.array([[-10.0, 1000.0], [-20.0, 2000.0]])
        reported = problem.reported_front(minimized)
        assert reported[:, 0] == pytest.approx([10.0, 20.0])
        assert reported[:, 1] == pytest.approx([1000.0, 2000.0])

    def test_more_nitrogen_is_needed_for_more_uptake_on_the_front(self, problem):
        """A short optimization exposes the conflicting-objectives structure."""
        result = solve(problem, "nsga2", population_size=24, seed=0, termination=15)
        front = result.archive.objective_matrix()
        assert front.shape[0] >= 5
        reported = problem.reported_front(front)
        order = np.argsort(reported[:, 0])
        uptake_sorted = reported[order, 0]
        nitrogen_sorted = reported[order, 1]
        # Along a non-dominated front, nitrogen must increase with uptake.
        assert np.all(np.diff(nitrogen_sorted) >= -1e-6)
        assert uptake_sorted[-1] > uptake_sorted[0]


class TestRobustProblem:
    def test_three_objectives(self):
        problem = RobustPhotosynthesisProblem(
            REFERENCE_CONDITION, robustness_trials=10, seed=0
        )
        assert problem.n_obj == 3
        batch = problem.evaluate_matrix(natural_activities()[None, :])
        assert batch.F.shape == (1, 3)
        # Yield objective is negated percentage in [0, 100].
        assert -100.0 <= batch.F[0, 2] <= 0.0
        assert batch.info_at(0)["yield"] == pytest.approx(-batch.F[0, 2])

    def test_yield_objective_is_deterministic_given_seed(self):
        problem = RobustPhotosynthesisProblem(robustness_trials=20, seed=3)
        x = natural_activities()
        a = problem.evaluate_matrix(x[None, :]).F[0, 2]
        b = problem.evaluate_matrix(x[None, :]).F[0, 2]
        assert a == pytest.approx(b)
