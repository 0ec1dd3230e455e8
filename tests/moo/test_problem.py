"""Tests for the Problem abstraction."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DimensionError
from repro.problems import FunctionalProblem
from tests.oracles.budget import BudgetCounting


def make_problem():
    return FunctionalProblem(
        n_var=2,
        objective_functions=[
            lambda x: float(x[0] ** 2 + x[1] ** 2),
            lambda x: float((x[0] - 1) ** 2 + x[1] ** 2),
        ],
        lower_bounds=[-2.0, -2.0],
        upper_bounds=[2.0, 2.0],
    )


class TestFunctionalProblem:
    def test_evaluate_matrix_returns_both_objectives(self):
        problem = make_problem()
        batch = problem.evaluate_matrix(np.array([[1.0, 1.0]]))
        assert batch.F[0] == pytest.approx([2.0, 1.0])

    def test_requires_at_least_one_objective(self):
        with pytest.raises(ConfigurationError):
            FunctionalProblem(
                n_var=1, objective_functions=[], lower_bounds=[0.0], upper_bounds=[1.0]
            )

    def test_rejects_wrong_bound_shapes(self):
        with pytest.raises(DimensionError):
            FunctionalProblem(
                n_var=2,
                objective_functions=[lambda x: 0.0],
                lower_bounds=[0.0],
                upper_bounds=[1.0, 1.0],
            )

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ConfigurationError):
            FunctionalProblem(
                n_var=1,
                objective_functions=[lambda x: 0.0],
                lower_bounds=[1.0],
                upper_bounds=[0.0],
            )

    def test_validate_rejects_wrong_shape(self):
        problem = make_problem()
        with pytest.raises(DimensionError):
            problem.validate(np.zeros(3))

    def test_constraints_are_reported(self):
        problem = FunctionalProblem(
            n_var=1,
            objective_functions=[lambda x: float(x[0])],
            constraint_functions=[lambda x: float(x[0] - 0.5)],
            lower_bounds=[0.0],
            upper_bounds=[1.0],
        )
        batch = problem.evaluate_matrix(np.array([[1.0], [0.2]]))
        assert batch.total_violations[0] == pytest.approx(0.5)
        assert bool(batch.feasible[1])


class TestProblemHelpers:
    def test_clip_projects_onto_bounds(self):
        problem = make_problem()
        assert problem.clip(np.array([5.0, -5.0])) == pytest.approx([2.0, -2.0])

    def test_random_solution_within_bounds(self):
        problem = make_problem()
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = problem.random_solution(rng)
            assert np.all(x >= problem.lower_bounds)
            assert np.all(x <= problem.upper_bounds)

    def test_denormalize_maps_the_unit_box_onto_the_bounds(self):
        problem = make_problem()
        assert problem.denormalize(np.zeros(2)) == pytest.approx(problem.lower_bounds)
        assert problem.denormalize(np.ones(2)) == pytest.approx(problem.upper_bounds)

    def test_reported_objectives_flips_maximized_axes(self):
        problem = FunctionalProblem(
            n_var=1,
            objective_functions=[lambda x: -float(x[0]), lambda x: float(x[0])],
            lower_bounds=[0.0],
            upper_bounds=[1.0],
            objective_senses=[-1, 1],
        )
        reported = problem.reported_objectives(np.array([-0.7, 0.7]))
        assert reported == pytest.approx([0.7, 0.7])

    def test_names_default_and_custom(self):
        problem = make_problem()
        assert problem.names == ["x0", "x1"]
        named = FunctionalProblem(
            n_var=1,
            objective_functions=[lambda x: 0.0],
            lower_bounds=[0.0],
            upper_bounds=[1.0],
            names=["rubisco"],
        )
        assert named.names == ["rubisco"]


class TestCountingProblem:
    def test_counts_every_evaluation(self):
        counter = BudgetCounting(make_problem())
        counter.evaluate_matrix(np.zeros((3, 2)))
        counter.evaluate_matrix(np.zeros((2, 2)))
        assert counter.evaluations == 5
        counter.reset()
        assert counter.evaluations == 0

    def test_preserves_inner_metadata(self):
        inner = make_problem()
        counter = BudgetCounting(inner)
        assert counter.n_var == inner.n_var
        assert counter.n_obj == inner.n_obj
        assert "Counting" in counter.name
