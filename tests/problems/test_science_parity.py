"""Batch-vs-scalar parity for the science problems, through the registry.

Every science problem now implements ``_evaluate_matrix``; these tests pin
the contract that made that safe: for any population, the vectorized batch
is *bitwise* identical to looping the per-design reference evaluation of
``tests/oracles/science.py`` over the rows, and
evaluating through a :class:`~repro.runtime.evaluator.ProcessPoolEvaluator`
(which ships row chunks to workers) is bitwise identical to the serial
evaluator.  The specs are resolved by registry name so the parametrization
exercises exactly what experiment configs instantiate.
"""

import numpy as np
import pytest

from repro.fba.batch import steady_state_violations
from repro.problems.batch import BatchEvaluation
from repro.problems.registry import build_problem
from repro.runtime import ProcessPoolEvaluator, SerialEvaluator
from tests.oracles.fba import reference_constraint_violation
from tests.oracles.science import evaluate_row

#: Registry spec strings; the robust spec uses a small trial count so the
#: Monte-Carlo ensemble stays test-sized without changing the code path.
SCIENCE_SPECS = (
    "photosynthesis",
    "photosynthesis-robust?robustness_trials=8&seed=5",
    "geobacter",
    "geobacter?violation_norm=l2",
    "geobacter?violation_norm=linf",
)


def _population(problem, rows: int, seed: int = 23) -> np.ndarray:
    rng = np.random.default_rng(seed)
    X = rng.uniform(problem.lower_bounds, problem.upper_bounds, size=(rows, problem.n_var))
    X[0] = problem.lower_bounds
    X[-1] = problem.upper_bounds
    return X


def _row_loop(problem, X: np.ndarray) -> BatchEvaluation:
    """The reference rows of ``X``, stacked into one batch."""
    objectives, violations = zip(*(evaluate_row(problem, x) for x in X))
    return BatchEvaluation(F=np.vstack(objectives), G=np.vstack(violations))


@pytest.mark.parametrize("spec", SCIENCE_SPECS)
class TestBatchRowParity:
    def test_matrix_path_is_bitwise_identical_to_row_loop(self, spec):
        problem = build_problem(spec)
        X = _population(problem, rows=9)
        batch = problem.evaluate_matrix(X)
        rows = _row_loop(problem, X)
        assert np.array_equal(batch.F, rows.F)
        assert np.array_equal(batch.G, rows.G)

    def test_matrix_path_is_chunk_invariant(self, spec):
        problem = build_problem(spec)
        X = _population(problem, rows=8)
        whole = problem.evaluate_matrix(X)
        split = np.vstack(
            [problem.evaluate_matrix(X[:3]).F, problem.evaluate_matrix(X[3:]).F]
        )
        assert np.array_equal(whole.F, split)


@pytest.mark.parametrize(
    "spec",
    ("photosynthesis", "photosynthesis-robust?robustness_trials=6&seed=5", "geobacter"),
)
def test_pooled_evaluation_is_bitwise_identical_to_serial(spec):
    problem = build_problem(spec)
    X = _population(problem, rows=10, seed=41)
    serial = SerialEvaluator().evaluate_matrix(problem, X)
    with ProcessPoolEvaluator(n_workers=2) as pool:
        pooled = pool.evaluate_matrix(problem, X)
        assert pool.fallbacks == 0
    assert np.array_equal(pooled.F, serial.F)
    assert np.array_equal(pooled.G, serial.G)


@pytest.mark.parametrize("spec", [spec for spec in SCIENCE_SPECS if "geobacter" in spec])
def test_reported_violations_match_the_reference_rows(spec):
    """The violation a front reports is the reference ``‖S v‖`` of each row."""
    problem = build_problem(spec)
    X = _population(problem, rows=9)
    reported = steady_state_violations(problem.model, X, problem.violation_norm)
    reference = [
        reference_constraint_violation(problem.model, problem.validate(x), problem.violation_norm)
        for x in X
    ]
    assert reported.tolist() == reference
