"""Tests for the batch-first Problem contract."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DimensionError
from repro.moo.operators import latin_hypercube
from repro.moo.testproblems import ConstrainedBNH
from repro.problems import (
    BatchEvaluation,
    ConstraintAsPenalty,
    FunctionalProblem,
    Normalized,
    Problem,
    build_problem,
    problem_names,
)
from repro.runtime.evaluator import CachedEvaluator, ProcessPoolEvaluator, SerialEvaluator


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
        super().__init__(
            n_var=2, n_obj=1, lower_bounds=[0.0, 0.0], upper_bounds=[1.0, 1.0], n_con=1
        )
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
        # A problem may declare a half-open box and supply its own sampling;
        # the constructor refuses only NaN bounds.
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


class TestMemoryLayout:
    """A batch is a function of the matrix's values, not of its layout."""

    @pytest.mark.parametrize("name", problem_names())
    def test_c_fortran_and_transposed_views_give_the_same_bits(self, name):
        problem = build_problem(name)
        X = np.random.default_rng(7).uniform(
            problem.lower_bounds, problem.upper_bounds, (40, problem.n_var)
        )
        layouts = (X, np.asfortranarray(X), np.ascontiguousarray(X.T).T)
        if problem.n_var > 1:  # one column is both C and Fortran ordered
            assert not (layouts[1].flags.c_contiguous or layouts[2].flags.c_contiguous)
        batches = [problem.evaluate_matrix(layout) for layout in layouts]
        for batch in batches[1:]:
            assert batch.F.tobytes() == batches[0].F.tobytes()
            assert batch.G.tobytes() == batches[0].G.tobytes()

    def test_validated_matrices_are_c_contiguous_and_c_input_is_not_copied(self):
        problem = MatrixFirstProblem()
        X = np.zeros((4, 3))
        assert problem.validate_matrix(X) is X
        assert problem.validate_matrix(np.asfortranarray(X)).flags.c_contiguous


class TestConstraintWidth:
    """``G`` has the problem's declared ``n_con`` columns, zero rows included."""

    @pytest.mark.parametrize(
        "problem, n_con",
        [
            (ConstrainedBNH(), 2),
            (Normalized(ConstrainedBNH()), 2),
            (ConstraintAsPenalty(ConstrainedBNH()), 0),
            (MatrixFirstProblem(), 0),
            (RowProblem(), 1),
        ],
        ids=["bnh", "normalized-bnh", "penalty-bnh", "unconstrained", "row-problem"],
    )
    def test_empty_and_full_batches_agree(self, problem, n_con):
        assert problem.n_con == n_con
        X = np.random.default_rng(0).uniform(
            problem.lower_bounds, problem.upper_bounds, (3, problem.n_var)
        )
        empty = np.empty((0, problem.n_var))
        batches = [
            problem.evaluate_matrix(empty),
            SerialEvaluator().evaluate_matrix(problem, empty),
            ProcessPoolEvaluator(n_workers=2).evaluate_matrix(problem, empty),
            CachedEvaluator().evaluate_matrix(problem, empty),
        ]
        for batch in batches:
            assert batch.F.shape == (0, problem.n_obj) and batch.G.shape == (0, n_con)
        full = problem.evaluate_matrix(X)
        assert full.n_con == n_con
        merged = BatchEvaluation.concat([batches[0], full, batches[0]])
        assert merged.G.tobytes() == full.G.tobytes() and merged.G.shape == (3, n_con)

    def test_concat_refuses_mismatched_constraint_widths(self):
        with pytest.raises(ValueError):
            BatchEvaluation.concat([BatchEvaluation.empty(2, 0), BatchEvaluation.empty(2, 1)])

    def test_a_batch_wider_than_declared_is_refused(self):
        problem = RowProblem()
        problem.n_con = 0  # as a subclass that forgot to declare its constraint
        with pytest.raises(DimensionError, match="1 constraint columns but declares n_con=0"):
            problem.evaluate_matrix(np.zeros((2, 2)))

    def test_negative_n_con_is_refused(self):
        with pytest.raises(ConfigurationError, match="n_con must be non-negative"):
            Problem(n_var=1, n_obj=1, lower_bounds=[0.0], upper_bounds=[1.0], n_con=-1)


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
        # Zero rows keep the constraint width too.
        G = np.array([[float(g(x)) for g in constraints] for x in X]).reshape(rows, len(constraints))
        assert batch.G.tobytes() == G.tobytes() and batch.G.shape == G.shape
        assert batch.n_con == problem.n_con == len(constraints)
        assert len(batch.total_violations) == rows

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


def _box(lower, upper, names=None):
    """A one-objective functional problem over the given box."""
    return FunctionalProblem(
        n_var=len(lower),
        objective_functions=[lambda x: float(x[0])],
        lower_bounds=lower,
        upper_bounds=upper,
        names=names,
    )


class TestBoxConstruction:
    """The decision box lives on ``Problem``: bounds, names and their checks."""

    def test_default_names_and_owned_bounds(self):
        lower = np.array([0.0, -1.0])
        problem = _box(lower, [1.0, 1.0])
        assert problem.names == ["x0", "x1"]
        assert problem.lower_bounds == pytest.approx([0.0, -1.0])
        lower[0] = 5.0  # the problem keeps its own copy of the bounds
        assert problem.lower_bounds[0] == 0.0

    @pytest.mark.parametrize(
        "lower, upper",
        [([np.nan, 0.0], [1.0, 1.0]), ([0.0, 0.0], [1.0, np.nan])],
    )
    def test_nan_bounds_are_refused(self, lower, upper):
        with pytest.raises(ConfigurationError, match="NaN"):
            _box(lower, upper)

    def test_inverted_bounds_are_refused(self):
        with pytest.raises(ConfigurationError, match="upper bound below lower bound"):
            _box([0.0, 1.0], [1.0, 0.5])

    def test_zero_span_bounds_stay_legal(self):
        problem = _box([0.5], [0.5])
        assert problem.denormalize(np.array([0.7])) == pytest.approx([0.5])

    def test_bound_shape_must_match_n_var(self):
        with pytest.raises(DimensionError, match="bounds must have shape"):
            Problem(n_var=2, n_obj=1, lower_bounds=[0.0], upper_bounds=[1.0])

    def test_names_length_must_match_n_var(self):
        with pytest.raises(DimensionError, match="names must have length"):
            _box([0.0, 0.0], [1.0, 1.0], names=["a"])

    def test_empty_names_are_refused(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            _box([0.0, 0.0], [1.0, 1.0], names=["a", ""])

    def test_duplicate_names_are_refused(self):
        with pytest.raises(ConfigurationError, match="unique"):
            _box([0.0, 0.0], [1.0, 1.0], names=["a", "a"])

    def test_missing_bounds_or_width_are_refused(self):
        with pytest.raises(ConfigurationError, match="box bounds"):
            Problem(n_var=1, n_obj=1)
        with pytest.raises(ConfigurationError, match="n_var must be positive"):
            Problem(n_var=0, n_obj=1, lower_bounds=[], upper_bounds=[])

    def test_random_solution_is_one_uniform_draw(self):
        # One call consumes exactly one rng.uniform(lower, upper) draw — the
        # stream every engine's initial population starts from.
        problem = _box([0.0, 0.0], [2.0, 4.0])
        rng = np.random.default_rng(3)
        a = problem.random_solution(rng)
        reference = np.random.default_rng(3)
        b = reference.uniform(problem.lower_bounds, problem.upper_bounds)
        assert a.tobytes() == b.tobytes()
        assert rng.random() == reference.random()

    def test_clip_is_shape_preserving(self):
        problem = _box([20.0, 1.0], [40.0, 5.0])
        raw = np.array([[0.0, 9.9], [99.0, -2.0]])
        assert problem.clip(raw) == pytest.approx(np.array([[20.0, 5.0], [40.0, 1.0]]))
        assert problem.clip(raw[0]) == pytest.approx([20.0, 5.0])

    def test_denormalize_maps_the_unit_box_onto_the_bounds(self):
        problem = _box([-2.0, 0.0], [2.0, 10.0])
        assert problem.denormalize(np.array([0.75, 0.75])) == pytest.approx([1.0, 7.5])
        U = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert problem.denormalize(U) == pytest.approx(np.array([[-2.0, 0.0], [2.0, 10.0]]))

    @pytest.mark.parametrize("name", problem_names())
    def test_latin_hypercube_starts_are_stratified_inside_every_registered_box(self, name):
        # The engines' default initialization is denormalize() of a stratified
        # unit sample: every row inside the box, each stratum of each variable
        # hit once, and a fixed variable (zero span) held at its bound.
        problem = build_problem(name)
        size = 16
        lower, upper = problem.lower_bounds, problem.upper_bounds
        assert np.array_equal(problem.denormalize(np.zeros(problem.n_var)), lower)
        assert problem.denormalize(np.ones(problem.n_var)) == pytest.approx(upper, rel=1e-12)
        X = latin_hypercube(problem, size, np.random.default_rng(3)).X
        assert X.shape == (size, problem.n_var)
        assert np.all((X >= lower) & (X <= upper))
        span = upper - lower
        fixed = span == 0
        assert np.array_equal(X[:, fixed], np.broadcast_to(lower[fixed], (size, fixed.sum())))
        strata = np.floor((X[:, ~fixed] - lower[~fixed]) / span[~fixed] * size).astype(int)
        expected = np.tile(np.arange(size)[:, None], (1, strata.shape[1]))
        assert np.array_equal(np.sort(strata, axis=0), expected)

    def test_design_space_json(self):
        problem = _box([0.5, -3.25], [1.5, np.inf], names=["a", "b"])
        assert problem.design_space() == {
            "variables": [
                {"kind": "continuous", "name": "a", "lower": 0.5, "upper": 1.5},
                {"kind": "continuous", "name": "b", "lower": -3.25, "upper": np.inf},
            ]
        }
