"""Tests for the batch-first Problem contract."""

import numpy as np
import pytest

from repro.exceptions import DimensionError
from repro.problems import (
    BatchEvaluation,
    DesignSpace,
    FunctionalProblem,
    Problem,
)
from repro.problems.space import ContinuousVariable, IntegerVariable


class MatrixFirstProblem(Problem):
    """New-style problem: implements the vectorized matrix hook."""

    def __init__(self, n_var=3):
        super().__init__(
            n_var=n_var, n_obj=2, lower_bounds=[-1.0] * n_var, upper_bounds=[1.0] * n_var
        )

    def _evaluate_matrix(self, X):
        return BatchEvaluation(
            F=np.column_stack([np.sum(X ** 2, axis=1), np.sum((X - 1.0) ** 2, axis=1)])
        )


class RowProblem(Problem):
    """Per-design problem: its matrix hook loops the rows and stacks them."""

    def __init__(self):
        super().__init__(n_var=2, n_obj=1, lower_bounds=[0.0, 0.0], upper_bounds=[1.0, 1.0])
        self.calls = 0

    def _evaluate_matrix(self, X):
        rows = [self._design(x) for x in X]
        return BatchEvaluation(
            F=np.array([[objective] for objective, _ in rows]),
            G=np.array([[violation] for _, violation in rows]),
        )

    def _design(self, x):
        self.calls += 1
        return float(np.prod(x)), float(x[0] - 0.5)


class TestMatrixDispatch:
    def test_matrix_first_hook_is_used_directly(self):
        problem = MatrixFirstProblem()
        X = np.random.default_rng(0).uniform(-1, 1, size=(6, 3))
        batch = problem.evaluate_matrix(X)
        assert batch.F.shape == (6, 2)
        assert batch.F[:, 0] == pytest.approx(np.sum(X ** 2, axis=1))

    def test_row_hook_is_looped_into_a_batch(self):
        problem = RowProblem()
        X = np.array([[0.2, 0.5], [0.9, 1.0]])
        batch = problem.evaluate_matrix(X)
        assert batch.F[:, 0] == pytest.approx([0.1, 0.9])
        assert batch.n_con == 1
        assert list(batch.feasible) == [True, False]
        assert problem.calls == 2

    def test_infinite_bounds_stay_legal(self):
        # Pre-redesign problems could declare half-open boxes and supply
        # their own sampling; the typed space must not reject them.
        problem = FunctionalProblem(
            n_var=1,
            objective_functions=[lambda x: float(x[0])],
            lower_bounds=[0.0],
            upper_bounds=[np.inf],
        )
        assert problem.upper_bounds[0] == np.inf
        assert problem.clip(np.array([1e12]))[0] == pytest.approx(1e12)

    def test_one_dimensional_input_is_a_batch_of_one(self):
        batch = MatrixFirstProblem().evaluate_matrix(np.zeros(3))
        assert len(batch) == 1

    def test_empty_matrix_short_circuits(self):
        problem = RowProblem()
        batch = problem.evaluate_matrix(np.empty((0, 2)))
        assert len(batch) == 0 and problem.calls == 0

    def test_shape_errors(self):
        problem = MatrixFirstProblem()
        with pytest.raises(DimensionError):
            problem.evaluate_matrix(np.zeros((2, 5)))
        with pytest.raises(DimensionError):
            problem.evaluate_matrix(np.zeros(5))

    def test_problem_without_any_hook_fails_at_construction(self):
        with pytest.raises(TypeError, match="_evaluate_matrix"):
            Problem(n_var=1, n_obj=1, lower_bounds=[0.0], upper_bounds=[1.0])

        class Typo(Problem):
            """Subclass whose hook name is misspelled."""

            def _evaluate_rows(self, x):  # pragma: no cover - never called
                return None

        with pytest.raises(TypeError, match="Typo"):
            Typo(n_var=1, n_obj=1, lower_bounds=[0.0], upper_bounds=[1.0])


class TestFunctionalProblemRows:
    """``FunctionalProblem.evaluate_matrix`` is its callables, row by row."""

    OBJECTIVES = [lambda x: x[0] ** 2 + np.sin(x[1]), lambda x: np.exp(x[2]) - x[0] * x[1]]
    CONSTRAINTS = [lambda x: x[0] + x[1] - 0.5, lambda x: np.cos(x[2]) - 0.9]

    @pytest.mark.parametrize("rows", [0, 1, 50])
    @pytest.mark.parametrize("constrained", [False, True])
    def test_matrix_equals_callables_per_row_bitwise(self, rows, constrained):
        constraints = self.CONSTRAINTS if constrained else []
        problem = FunctionalProblem(
            n_var=3,
            objective_functions=self.OBJECTIVES,
            constraint_functions=constraints,
            lower_bounds=[-1.0] * 3,
            upper_bounds=[1.0] * 3,
        )
        X = np.random.default_rng(rows).uniform(-1.0, 1.0, size=(rows, 3))
        batch = problem.evaluate_matrix(X)
        F = np.array([[float(f(x)) for f in self.OBJECTIVES] for x in X]).reshape(rows, 2)
        assert batch.F.tobytes() == F.tobytes() and batch.F.shape == F.shape
        assert batch.info is None
        if rows and constrained:
            G = np.array([[float(g(x)) for g in constraints] for x in X])
            assert batch.G.tobytes() == G.tobytes() and batch.G.shape == G.shape
        else:
            assert batch.n_con == 0 and len(batch.total_violations) == rows

    def test_objectives_then_constraints_per_row(self):
        calls = []

        def recorder(name):
            return lambda x: calls.append((name, float(x[0]))) or 0.0

        problem = FunctionalProblem(
            n_var=1,
            objective_functions=[recorder("f0"), recorder("f1")],
            constraint_functions=[recorder("g0")],
            lower_bounds=[0.0],
            upper_bounds=[1.0],
        )
        problem.evaluate_matrix(np.array([[0.25], [0.75]]))
        assert calls == [
            ("f0", 0.25), ("f1", 0.25), ("g0", 0.25),
            ("f0", 0.75), ("f1", 0.75), ("g0", 0.75),
        ]


class TestDesignSpaceIntegration:
    def test_space_construction_defines_metadata(self):
        space = DesignSpace(
            [
                ContinuousVariable("a", 0.0, 2.0, unit="mM"),
                IntegerVariable("k", 1, 4),
            ]
        )
        problem = FunctionalProblem(
            n_var=None,
            objective_functions=[lambda x: float(x[0])],
            space=space,
        )
        assert problem.n_var == 2
        assert problem.names == ["a", "k"]
        assert problem.space is space
        assert problem.lower_bounds == pytest.approx([0.0, 1.0])

    def test_legacy_bounds_build_a_continuous_space(self):
        problem = MatrixFirstProblem()
        assert problem.space.is_continuous
        assert problem.space.names == problem.names
        assert np.array_equal(problem.space.lower_bounds, problem.lower_bounds)

    def test_space_and_bounds_are_mutually_exclusive(self):
        from repro.exceptions import ConfigurationError

        space = DesignSpace.continuous([0.0], [1.0])
        with pytest.raises(ConfigurationError):
            Problem(n_var=1, n_obj=1, lower_bounds=[0.0], upper_bounds=[1.0], space=space)

    def test_repair_delegates_to_the_space(self):
        space = DesignSpace([IntegerVariable("k", 0, 3)])
        problem = FunctionalProblem(
            n_var=None, objective_functions=[lambda x: 0.0], space=space
        )
        assert problem.repair(np.array([2.7])) == pytest.approx([3.0])

    def test_random_solution_matches_legacy_stream(self):
        problem = MatrixFirstProblem()
        a = problem.random_solution(np.random.default_rng(11))
        b = np.random.default_rng(11).uniform(problem.lower_bounds, problem.upper_bounds)
        assert np.array_equal(a, b)
