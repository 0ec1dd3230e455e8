"""An evaluation counter independent of the runtime ledger.

:class:`BudgetCounting` wraps a problem and counts, in this process, the
rows of every batch that reaches it.  Tests use it as a second, independent
count to check the ledger and the optimizers' ``evaluations`` counters
against; a run's budget is ``MaxEvaluations`` and its count is the ledger.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, EvaluationError
from repro.problems.base import Problem
from repro.problems.batch import BatchEvaluation
from repro.problems.transforms import ProblemTransform

__all__ = ["BudgetCounting"]


class BudgetCounting(ProblemTransform):
    """Count evaluations of the inner problem, optionally enforcing a budget.

    Parameters
    ----------
    inner:
        The problem whose evaluations are counted.
    max_evaluations:
        Optional hard cap; exceeding it raises
        :class:`~repro.exceptions.EvaluationError` *before* the offending
        batch is evaluated, so the counter never overshoots.

    Notes
    -----
    The counter lives in this process — under a
    :class:`~repro.runtime.evaluator.ProcessPoolEvaluator` the workers count
    their own copies, so use the optimizer's ``evaluations`` counter or the
    runtime ledger for pooled runs.
    """

    transparent_to_cache = True

    def __init__(self, inner: Problem, max_evaluations: int | None = None) -> None:
        if max_evaluations is not None and max_evaluations < 1:
            raise ConfigurationError("max_evaluations must be positive")
        super().__init__(inner)
        self.max_evaluations = max_evaluations
        self.evaluations = 0

    def _evaluate_matrix(self, X: np.ndarray) -> BatchEvaluation:
        if (
            self.max_evaluations is not None
            and self.evaluations + X.shape[0] > self.max_evaluations
        ):
            raise EvaluationError(
                "evaluation budget exhausted: %d used, %d requested, cap %d"
                % (self.evaluations, X.shape[0], self.max_evaluations)
            )
        self.evaluations += X.shape[0]
        return self.inner.evaluate_matrix(X)

    @property
    def remaining(self) -> int | None:
        """Evaluations left under the cap (``None`` without a cap)."""
        if self.max_evaluations is None:
            return None
        return max(0, self.max_evaluations - self.evaluations)

    def reset(self) -> None:
        """Reset the evaluation counter to zero."""
        self.evaluations = 0
