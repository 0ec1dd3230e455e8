"""Tests for the photosynthesis multi-objective design problems."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.moo.robustness import RobustnessSettings, front_yields, local_yields, uptake_yield
from repro.photosynthesis.conditions import PAPER_CONDITIONS, REFERENCE_CONDITION, condition
from repro.photosynthesis.enzymes import natural_activities
from repro.photosynthesis.nitrogen import NATURAL_NITROGEN, total_nitrogen, total_nitrogen_batch
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
        assert -batch.F[0, 0] > 0.0

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
        front = result.archive.F
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
        (report,) = front_yields(
            natural_activities()[None, :], problem.model.co2_uptake_batch,
            settings=problem.settings,
        )
        assert -batch.F[0, 2] == report.yield_percentage

    def test_yield_objective_is_deterministic_given_seed(self):
        problem = RobustPhotosynthesisProblem(robustness_trials=20, seed=3)
        x = natural_activities()
        a = problem.evaluate_matrix(x[None, :]).F[0, 2]
        b = problem.evaluate_matrix(x[None, :]).F[0, 2]
        assert a == pytest.approx(b)


class TestUptakeMatrix:
    """``uptake_matrix`` against the scalar row loop, through every yield routine."""

    @staticmethod
    def _row_loop(problem):
        return lambda X: np.array([problem.uptake(x) for x in X])

    @staticmethod
    def _assert_reports_equal(batched, looped):
        assert np.array_equal(batched.perturbed_values, looped.perturbed_values)
        assert batched.nominal_value == looped.nominal_value
        assert batched.robust_trials == looped.robust_trials
        assert batched.yield_fraction == looped.yield_fraction

    def test_matches_scalar_uptake_bitwise(self, problem):
        X = np.random.default_rng(0).uniform(problem.lower_bounds, problem.upper_bounds, (9, 23))
        assert np.array_equal(problem.uptake_matrix(X), self._row_loop(problem)(X))

    def test_uptake_yield_oracle(self, problem):
        settings = RobustnessSettings(epsilon=0.05, global_trials=60, seed=4)
        x = natural_activities()
        self._assert_reports_equal(
            uptake_yield(x, problem.uptake_matrix, settings=settings),
            uptake_yield(x, self._row_loop(problem), settings=settings),
        )

    def test_front_yields_oracle(self, problem):
        settings = RobustnessSettings(epsilon=0.05, global_trials=40, seed=4)
        decisions = np.outer([0.5, 1.0, 2.0], natural_activities())
        bounds = dict(clip_lower=problem.lower_bounds, clip_upper=problem.upper_bounds)
        batched = front_yields(decisions, problem.uptake_matrix, settings=settings, **bounds)
        looped = front_yields(decisions, self._row_loop(problem), settings=settings, **bounds)
        for a, b in zip(batched, looped, strict=True):
            self._assert_reports_equal(a, b)

    def test_local_yields_oracle(self, problem):
        settings = RobustnessSettings(epsilon=0.01, local_trials=15, seed=4)
        x = natural_activities()
        batched = local_yields(x, problem.uptake_matrix, settings=settings)
        looped = local_yields(x, self._row_loop(problem), settings=settings)
        assert batched.keys() == looped.keys()
        for name in batched:
            self._assert_reports_equal(batched[name], looped[name])


class TestNitrogenBatch:
    """``total_nitrogen_batch`` is ``total_nitrogen`` of each row, bit for bit."""

    @staticmethod
    def _assert_rows_match(X):
        batched = total_nitrogen_batch(X)
        looped = np.array([total_nitrogen(x) for x in X], dtype=float)
        assert batched.dtype == np.float64
        assert batched.shape == (X.shape[0],)
        assert batched.tobytes() == looped.tobytes()

    @pytest.fixture(scope="class")
    def trials(self):
        # As many rows as the Table 2 yield trials put through one batch.
        problem = PhotosynthesisProblem(REFERENCE_CONDITION)
        rng = np.random.default_rng(2011)
        return rng.uniform(problem.lower_bounds, problem.upper_bounds, (13000, 23))

    def test_no_rows_and_one_row(self, trials):
        self._assert_rows_match(trials[:0])
        self._assert_rows_match(trials[:1])

    def test_thirteen_thousand_rows_in_the_box(self, trials):
        self._assert_rows_match(trials)

    def test_fortran_ordered_and_strided_matrices(self, trials):
        self._assert_rows_match(np.asfortranarray(trials[:500]))
        self._assert_rows_match(trials[::2])

    def test_problem_objectives_are_the_batched_uptake_and_nitrogen(self, problem, trials):
        batch = problem.evaluate_matrix(trials[:50])
        uptake = problem.uptake_matrix(trials[:50])
        assert (-batch.F[:, 0]).tobytes() == uptake.tobytes()
        assert batch.F[:, 1].tobytes() == total_nitrogen_batch(trials[:50]).tobytes()


class TestObjectiveMatrix:
    """``objective_matrix`` is bitwise the column the full evaluation reports."""

    @staticmethod
    def _rows(problem):
        rng = np.random.default_rng(36)
        low, high = problem.lower_bounds, problem.upper_bounds
        corners = np.where(rng.random((16, problem.n_var)) < 0.5, low, high)
        return np.vstack(
            [rng.uniform(low, high, size=(64, problem.n_var)), low, high, corners, problem.natural]
        )

    @pytest.mark.parametrize("key", sorted(PAPER_CONDITIONS), ids="-".join)
    @pytest.mark.parametrize("name", ["co2_uptake", "nitrogen"])
    def test_matches_the_reported_column_at_every_paper_condition(self, key, name):
        problem = PhotosynthesisProblem(PAPER_CONDITIONS[key])
        X = self._rows(problem)
        column = problem.objective_names.index(name)
        full = problem.reported_objectives(problem.evaluate_matrix(X).F)[:, column]
        alone = problem.objective_matrix(name, X)
        assert alone.shape == full.shape == (len(X),)
        assert alone.tobytes() == full.tobytes()

    def test_unknown_objective_is_refused(self, problem):
        with pytest.raises(ConfigurationError, match="yield"):
            problem.objective_matrix("yield", problem.natural)
