"""Tests for the BatchEvaluation columnar container."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DimensionError
from repro.problems import BatchEvaluation


class TestConstruction:
    def test_unconstrained_defaults(self):
        batch = BatchEvaluation(F=np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert len(batch) == 2
        assert batch.n_obj == 2 and batch.n_con == 0
        assert batch.G.shape == (2, 0)

    def test_one_dimensional_G_becomes_a_column(self):
        batch = BatchEvaluation(F=np.zeros((3, 1)), G=np.array([0.0, 1.0, -1.0]))
        assert batch.G.shape == (3, 1)

    def test_shape_mismatches_rejected(self):
        with pytest.raises(DimensionError):
            BatchEvaluation(F=np.zeros(3))
        with pytest.raises(DimensionError):
            BatchEvaluation(F=np.zeros((3, 2)), G=np.zeros((2, 1)))


class TestViolations:
    def test_total_violations_counts_positive_entries_only(self):
        batch = BatchEvaluation(
            F=np.zeros((2, 1)), G=np.array([[-1.0, 0.5, 2.0], [0.0, 0.0, 0.0]])
        )
        assert batch.total_violations == pytest.approx([2.5, 0.0])
        assert list(batch.feasible) == [False, True]

    def test_unconstrained_batches_are_feasible(self):
        batch = BatchEvaluation(F=np.ones((4, 2)))
        assert batch.total_violations == pytest.approx([0.0] * 4)
        assert all(batch.feasible)


class TestConcat:
    def test_concat_preserves_rows(self):
        a = BatchEvaluation(F=np.array([[1.0]]), G=np.array([[0.5]]))
        b = BatchEvaluation(F=np.array([[2.0], [3.0]]), G=np.array([[0.0], [1.5]]))
        merged = BatchEvaluation.concat([a, b])
        assert merged.F == pytest.approx(np.array([[1.0], [2.0], [3.0]]))
        assert merged.G == pytest.approx(np.array([[0.5], [0.0], [1.5]]))

    def test_concat_single_batch_is_identity(self):
        a = BatchEvaluation(F=np.array([[1.0]]))
        assert BatchEvaluation.concat([a]) is a

    def test_concat_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            BatchEvaluation.concat([])

    def test_empty_constructor(self):
        batch = BatchEvaluation.empty(3, 2)
        assert len(batch) == 0
        assert batch.F.shape == (0, 3) and batch.G.shape == (0, 2)
