"""Tests for the composable problem transforms."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, EvaluationError
from repro.moo.testproblems import ZDT1, ConstrainedBNH
from repro.problems import (
    BudgetCounting,
    ConstraintAsPenalty,
    Noisy,
    Normalized,
    ObjectiveSubset,
)


def _sample(problem, n, seed=0):
    rng = np.random.default_rng(seed)
    return problem.space.sample(rng, n)


class TestNoisy:
    def test_noise_is_deterministic_per_design(self):
        problem = Noisy(ZDT1(n_var=5), sigma=0.1, seed=4)
        X = _sample(problem, 8)
        assert np.array_equal(problem.evaluate_matrix(X).F, problem.evaluate_matrix(X).F)

    def test_noise_is_independent_of_batch_composition(self):
        # Row i of a batch must get the same noise as a batch of one — the
        # invariant that keeps pooled/chunked evaluation bitwise stable.
        problem = Noisy(ZDT1(n_var=5), sigma=0.1)
        X = _sample(problem, 6)
        full = problem.evaluate_matrix(X).F
        rows = np.vstack([problem.evaluate_matrix(row[None, :]).F for row in X])
        assert np.array_equal(full, rows)

    def test_different_seeds_produce_different_surfaces(self):
        X = _sample(ZDT1(n_var=5), 4)
        a = Noisy(ZDT1(n_var=5), sigma=0.1, seed=0).evaluate_matrix(X).F
        b = Noisy(ZDT1(n_var=5), sigma=0.1, seed=1).evaluate_matrix(X).F
        assert not np.array_equal(a, b)

    def test_zero_sigma_is_exact(self):
        inner = ZDT1(n_var=5)
        X = _sample(inner, 4)
        assert np.array_equal(
            Noisy(inner, sigma=0.0).evaluate_matrix(X).F, inner.evaluate_matrix(X).F
        )

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            Noisy(ZDT1(), sigma=-0.1)


class TestNormalized:
    def test_unit_box_maps_onto_inner_bounds(self):
        inner = ConstrainedBNH()  # bounds [0,5] x [0,3]
        problem = Normalized(inner)
        assert problem.lower_bounds == pytest.approx([0.0, 0.0])
        assert problem.upper_bounds == pytest.approx([1.0, 1.0])
        unit = np.array([[1.0, 1.0]])
        assert np.array_equal(
            problem.evaluate_matrix(unit).F,
            inner.evaluate_matrix(np.array([[5.0, 3.0]])).F,
        )

    def test_constraints_pass_through(self):
        problem = Normalized(ConstrainedBNH())
        batch = problem.evaluate_matrix(np.array([[0.0, 1.0]]))
        assert batch.n_con == 2

    def test_names_are_preserved(self):
        inner = ZDT1(n_var=3)
        assert Normalized(inner).names == inner.names


class TestObjectiveSubset:
    def test_keeps_selected_columns_and_metadata(self):
        inner = ZDT1(n_var=4)
        problem = ObjectiveSubset(inner, [1])
        assert problem.n_obj == 1
        assert problem.objective_names == ["f2"]
        X = _sample(inner, 5)
        assert np.array_equal(
            problem.evaluate_matrix(X).F[:, 0], inner.evaluate_matrix(X).F[:, 1]
        )

    def test_order_is_respected(self):
        inner = ZDT1(n_var=4)
        problem = ObjectiveSubset(inner, [1, 0])
        assert problem.objective_names == ["f2", "f1"]

    def test_invalid_indices_rejected(self):
        inner = ZDT1(n_var=4)
        for bad in ([], [0, 0], [5]):
            with pytest.raises(ConfigurationError):
                ObjectiveSubset(inner, bad)


class TestConstraintAsPenalty:
    def test_violating_rows_are_penalized_and_unconstrained(self):
        inner = ConstrainedBNH()
        problem = ConstraintAsPenalty(inner, rho=10.0)
        X = np.array([[1.0, 1.0], [0.0, 3.0]])  # feasible, infeasible
        inner_batch = inner.evaluate_matrix(X)
        batch = problem.evaluate_matrix(X)
        assert batch.n_con == 0
        assert np.array_equal(batch.F[0], inner_batch.F[0])  # feasible untouched
        expected = inner_batch.F[1] + 10.0 * inner_batch.total_violations[1]
        assert batch.F[1] == pytest.approx(expected)

    def test_negative_rho_rejected(self):
        with pytest.raises(ConfigurationError):
            ConstraintAsPenalty(ConstrainedBNH(), rho=-1.0)


class TestBudgetCounting:
    def test_counts_rows(self):
        problem = BudgetCounting(ZDT1(n_var=4))
        problem.evaluate_matrix(_sample(problem, 3))
        problem.evaluate_matrix(_sample(problem, 2))
        assert problem.evaluations == 5
        assert problem.remaining is None
        problem.reset()
        assert problem.evaluations == 0

    def test_budget_is_enforced_before_evaluation(self):
        problem = BudgetCounting(BudgetCounting(ZDT1(n_var=4)), max_evaluations=4)
        problem.evaluate_matrix(_sample(problem, 3))
        assert problem.remaining == 1
        with pytest.raises(EvaluationError):
            problem.evaluate_matrix(_sample(problem, 2))
        # The refused batch never reached the inner problem.
        assert problem.inner.evaluations == 3
        assert problem.evaluations == 3


class TestStacking:
    def test_noisy_of_normalized_composes(self):
        problem = Noisy(Normalized(ZDT1(n_var=4)), sigma=0.05, seed=1)
        assert problem.name == "Noisy(Normalized(ZDT1))"
        assert problem.lower_bounds == pytest.approx([0.0] * 4)
        X = _sample(problem, 6)
        batch = problem.evaluate_matrix(X)
        assert batch.F.shape == (6, 2)
        # Determinism survives the stack.
        assert np.array_equal(batch.F, problem.evaluate_matrix(X).F)

    def test_deep_stack_keeps_counting_on_the_outside(self):
        problem = BudgetCounting(
            Noisy(ConstraintAsPenalty(ConstrainedBNH(), rho=5.0), sigma=0.01)
        )
        X = _sample(problem, 4)
        batch = problem.evaluate_matrix(X)
        assert problem.evaluations == 4
        assert batch.n_con == 0

    def test_transforms_are_picklable(self):
        import pickle

        problem = Noisy(Normalized(ZDT1(n_var=4)), sigma=0.05)
        clone = pickle.loads(pickle.dumps(problem))
        X = _sample(problem, 3)
        assert np.array_equal(
            clone.evaluate_matrix(X).F, problem.evaluate_matrix(X).F
        )


class TestThrottled:
    def test_results_pass_through_unchanged(self):
        from repro.problems import Throttled

        inner = ZDT1(n_var=4)
        problem = Throttled(inner, delay=0.0)
        assert problem.name == "Throttled(ZDT1)"
        X = _sample(problem, 3)
        assert np.array_equal(problem.evaluate_matrix(X).F, inner.evaluate_matrix(X).F)

    def test_delay_scales_with_batch_size(self):
        import time

        from repro.problems import Throttled

        problem = Throttled(ZDT1(n_var=4), delay=0.01)
        X = _sample(problem, 5)
        started = time.perf_counter()
        problem.evaluate_matrix(X)
        assert time.perf_counter() - started >= 0.05

    def test_negative_delay_is_rejected(self):
        from repro.problems import Throttled

        with pytest.raises(ConfigurationError):
            Throttled(ZDT1(n_var=4), delay=-1.0)

    def test_spec_key_builds_the_transform(self):
        from repro.problems import Throttled, build_problem

        problem = build_problem("zdt1?delay=0.5")
        assert isinstance(problem, Throttled)
        assert problem.delay == 0.5


class TestFailAfter:
    def test_raises_once_the_budget_is_crossed(self):
        from repro.problems import FailAfter

        problem = FailAfter(ZDT1(n_var=4), max_evaluations=5)
        problem.evaluate_matrix(_sample(problem, 5))
        with pytest.raises(EvaluationError, match="deliberate failure"):
            problem.evaluate_matrix(_sample(problem, 1))

    def test_oversized_first_batch_fails_immediately(self):
        from repro.problems import FailAfter

        problem = FailAfter(ZDT1(n_var=4), max_evaluations=3)
        with pytest.raises(EvaluationError):
            problem.evaluate_matrix(_sample(problem, 4))

    def test_spec_key_builds_the_transform(self):
        from repro.problems import FailAfter, build_problem

        problem = build_problem("zdt1?fail_after=10")
        assert isinstance(problem, FailAfter)
        assert problem.max_evaluations == 10

    def test_crashes_a_real_solve(self):
        from repro.exceptions import EvaluationError
        from repro.problems import build_problem
        from repro.solve import solve

        with pytest.raises(EvaluationError):
            solve(
                build_problem("zdt1?fail_after=30"),
                algorithm="nsga2",
                seed=0,
                termination=10,
                population_size=12,
            )
