"""Failure-injection tests: how the optimizers behave on misbehaving problems."""

import numpy as np
import pytest

from repro.exceptions import EvaluationError
from repro.moo.pmo2 import PMO2Config
from repro.problems import BatchEvaluation, Problem
from repro.solve import solve
from tests.oracles.budget import BudgetCounting


class FlakyProblem(Problem):
    """A bi-objective problem that raises after a configurable number of calls."""

    def __init__(self, fail_after=10_000):
        super().__init__(
            n_var=2, n_obj=2, lower_bounds=[0.0, 0.0], upper_bounds=[1.0, 1.0]
        )
        self.fail_after = fail_after
        self.calls = 0

    def _evaluate_matrix(self, X):
        objectives = []
        for x in X:  # one call per row, so a batch can fail part-way
            self.calls += 1
            if self.calls > self.fail_after:
                raise EvaluationError("synthetic evaluator failure")
            objectives.append([x[0], 1.0 - x[0] + x[1]])
        return BatchEvaluation(F=np.array(objectives))


class CliffProblem(Problem):
    """A problem whose objectives are extreme but finite near one corner."""

    def __init__(self):
        super().__init__(
            n_var=2, n_obj=2, lower_bounds=[0.0, 0.0], upper_bounds=[1.0, 1.0]
        )

    def _evaluate_matrix(self, X):
        scale = np.where(X[:, 0] > 0.99, 1e12, 1.0)
        return BatchEvaluation(F=np.column_stack([X[:, 0] * scale, (1 - X[:, 0]) * scale]))


class TestEvaluatorFailures:
    def test_nsga2_propagates_evaluation_errors(self):
        with pytest.raises(EvaluationError):
            solve(FlakyProblem(fail_after=30), "nsga2", population_size=16, seed=0,
                  termination=10)

    def test_moead_propagates_evaluation_errors(self):
        with pytest.raises(EvaluationError):
            solve(FlakyProblem(fail_after=30), "moead", population_size=16,
                  neighborhood_size=4, seed=0, termination=10)

    def test_pmo2_propagates_evaluation_errors(self):
        config = PMO2Config(island_population_size=16, migration_interval=5)
        with pytest.raises(EvaluationError):
            solve(FlakyProblem(fail_after=60), "pmo2", config=config, seed=0, termination=10)

    def test_no_work_is_lost_before_the_failure(self):
        problem = BudgetCounting(FlakyProblem(fail_after=30))
        with pytest.raises(EvaluationError):
            solve(problem, "nsga2", population_size=16, seed=0, termination=10)
        # The batch-first counter ticks per *submitted* matrix: the initial
        # 16-row batch plus the offspring batch whose 15th row fails — every
        # evaluation performed is accounted for (never undercounted).
        assert problem.evaluations == 32
        assert problem.inner.calls == 31


class TestExtremeObjectives:
    def test_huge_objective_values_do_not_break_the_run(self):
        result = solve(CliffProblem(), "nsga2", population_size=16, seed=1, termination=5)
        front = result.archive.F
        assert np.all(np.isfinite(front))

    def test_archive_still_non_dominated_with_extreme_scales(self):
        from repro.moo import kernels

        result = solve(CliffProblem(), "nsga2", population_size=16, seed=2, termination=5)
        matrix = result.archive.F
        assert not kernels.domination_matrix(matrix).any()
