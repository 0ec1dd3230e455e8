"""Tests for the Pareto-front quality metrics of Sec. 2.2 / Table 1."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DimensionError
from repro.moo.metrics import (
    coverage_report,
    generational_distance,
    global_pareto_coverage,
    hypervolume,
    inverted_generational_distance,
    normalize_fronts,
    relative_pareto_coverage,
    union_front,
)


class TestHypervolume:
    def test_single_point_rectangle(self):
        assert hypervolume(np.array([[1.0, 1.0]]), reference=[2.0, 2.0]) == pytest.approx(1.0)

    def test_two_points_staircase(self):
        front = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert hypervolume(front, reference=[3.0, 3.0]) == pytest.approx(3.0)

    def test_dominated_point_does_not_change_volume(self):
        front = np.array([[1.0, 2.0], [2.0, 1.0]])
        with_dominated = np.vstack([front, [2.5, 2.5]])
        reference = [3.0, 3.0]
        assert hypervolume(with_dominated, reference) == pytest.approx(
            hypervolume(front, reference)
        )

    def test_points_outside_reference_are_ignored(self):
        front = np.array([[1.0, 1.0], [5.0, 5.0]])
        assert hypervolume(front, reference=[2.0, 2.0]) == pytest.approx(1.0)

    def test_better_front_has_larger_hypervolume(self):
        reference = [1.2, 1.2]
        good = np.column_stack(
            [np.linspace(0, 1, 20), 1.0 - np.sqrt(np.linspace(0, 1, 20))]
        )
        bad = np.column_stack([np.linspace(0, 1, 20), 1.0 - 0.5 * np.linspace(0, 1, 20)])
        assert hypervolume(good, reference) > hypervolume(bad, reference)

    def test_single_objective(self):
        assert hypervolume(np.array([[2.0], [1.0]]), reference=[3.0]) == pytest.approx(2.0)

    def test_three_objectives_single_point(self):
        front = np.array([[1.0, 1.0, 1.0]])
        assert hypervolume(front, reference=[2.0, 2.0, 2.0]) == pytest.approx(1.0)

    def test_three_objectives_two_overlapping_boxes(self):
        # Union of the two dominated boxes: 0.5 + 0.25 - 0.125 overlap.
        front = np.array([[1.0, 1.0, 1.5], [1.5, 1.5, 1.0]])
        value = hypervolume(front, reference=[2.0, 2.0, 2.0])
        assert value == pytest.approx(0.625)

    def test_reference_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            hypervolume(np.array([[1.0, 1.0]]), reference=[2.0])

    def test_empty_front_rejected(self):
        with pytest.raises(DimensionError):
            hypervolume(np.empty((0, 2)))


class TestCoverage:
    def setup_method(self):
        self.front_a = np.array([[1.0, 4.0], [2.0, 3.0], [3.0, 2.0], [4.0, 1.0]])
        self.front_b = np.array([[1.5, 4.5], [2.5, 3.5], [0.5, 5.0]])

    def test_union_front_removes_dominated(self):
        union = union_front(self.front_a, self.front_b)
        # Only (0.5, 5.0) from front_b survives alongside all of front_a.
        assert union.shape[0] == 5

    def test_global_coverage_sums_to_one_for_disjoint_contributions(self):
        union = union_front(self.front_a, self.front_b)
        gp_a = global_pareto_coverage(self.front_a, union)
        gp_b = global_pareto_coverage(self.front_b, union)
        assert gp_a + gp_b == pytest.approx(1.0)
        assert gp_a == pytest.approx(4 / 5)

    def test_relative_coverage(self):
        union = union_front(self.front_a, self.front_b)
        assert relative_pareto_coverage(self.front_a, union) == pytest.approx(1.0)
        assert relative_pareto_coverage(self.front_b, union) == pytest.approx(1 / 3)

    def test_identical_fronts_have_full_coverage(self):
        union = union_front(self.front_a, self.front_a)
        assert global_pareto_coverage(self.front_a, union) == pytest.approx(1.0)
        assert relative_pareto_coverage(self.front_a, union) == pytest.approx(1.0)

    def test_coverage_report_contains_all_table1_columns(self):
        report = coverage_report({"PMO2": self.front_a, "MOEA-D": self.front_b})
        for name in ("PMO2", "MOEA-D"):
            assert set(report[name]) == {"points", "Rp", "Gp", "Vp"}
        assert report["PMO2"]["points"] == 4
        assert report["PMO2"]["Rp"] >= report["MOEA-D"]["Rp"]

    def test_coverage_report_requires_fronts(self):
        with pytest.raises(ConfigurationError):
            coverage_report({})

    def test_normalize_fronts_to_unit_box(self):
        normalized = normalize_fronts({"a": self.front_a, "b": self.front_b})
        stacked = np.vstack(list(normalized.values()))
        assert stacked.min() >= -1e-12
        assert stacked.max() <= 1.0 + 1e-12


class TestDistanceIndicators:
    def test_gd_and_igd_zero_for_identical_fronts(self):
        front = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
        assert generational_distance(front, front) == pytest.approx(0.0)
        assert inverted_generational_distance(front, front) == pytest.approx(0.0)

    def test_igd_increases_with_distance(self):
        reference = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
        near = reference + 0.01
        far = reference + 0.5
        assert inverted_generational_distance(near, reference) < inverted_generational_distance(
            far, reference
        )
