"""Tests for Pareto-front mining and trade-off selection."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DimensionError
from repro.moo.mining import (
    closest_to_ideal,
    equally_spaced_selection,
    ideal_point,
    knee_point,
    mine_front,
    shadow_minima,
)


@pytest.fixture
def convex_front():
    f1 = np.linspace(0.0, 1.0, 21)
    return np.column_stack([f1, (1.0 - f1) ** 2])


class TestReferencePoints:
    def test_ideal_point(self, convex_front):
        assert ideal_point(convex_front) == pytest.approx([0.0, 0.0])

    def test_rejects_empty_front(self):
        with pytest.raises(DimensionError):
            ideal_point(np.empty((0, 2)))


class TestClosestToIdeal:
    def test_picks_balanced_point_on_symmetric_front(self):
        f1 = np.linspace(0.0, 1.0, 101)
        front = np.column_stack([f1, 1.0 - f1])
        index = closest_to_ideal(front)
        assert front[index, 0] == pytest.approx(0.5, abs=0.01)

    def test_no_point_is_closer_than_the_selected_one(self, convex_front):
        index = closest_to_ideal(convex_front, normalize=False)
        ideal = ideal_point(convex_front)
        chosen = np.linalg.norm(convex_front[index] - ideal)
        distances = np.linalg.norm(convex_front - ideal, axis=1)
        assert chosen == pytest.approx(distances.min())

    def test_normalization_matters_for_scaled_objectives(self):
        f1 = np.linspace(0.0, 1.0, 101)
        front = np.column_stack([f1, (1.0 - f1) * 1e5])
        normalized = closest_to_ideal(front, normalize=True)
        raw = closest_to_ideal(front, normalize=False)
        # Without normalization the huge second objective dominates the
        # distance and pushes the selection to its extreme.
        assert front[raw, 1] < front[normalized, 1]

    def test_chebyshev_metric_supported(self, convex_front):
        index = closest_to_ideal(convex_front, metric="chebyshev")
        assert 0 <= index < convex_front.shape[0]

    def test_unknown_metric_rejected(self, convex_front):
        with pytest.raises(ConfigurationError):
            closest_to_ideal(convex_front, metric="manhattan")

    def test_custom_ideal_point(self, convex_front):
        index = closest_to_ideal(convex_front, ideal=np.array([1.0, 0.0]), normalize=False)
        assert convex_front[index, 0] == pytest.approx(1.0)


class TestShadowMinima:
    def test_one_index_per_objective(self, convex_front):
        indices = shadow_minima(convex_front)
        assert len(indices) == 2
        assert convex_front[indices[0], 0] == pytest.approx(0.0)
        assert convex_front[indices[1], 1] == pytest.approx(0.0)


class TestEquallySpaced:
    def test_returns_requested_count(self, convex_front):
        picks = equally_spaced_selection(convex_front, 5)
        assert len(picks) == 5
        assert len(set(picks)) == 5

    def test_includes_both_extremes(self, convex_front):
        picks = equally_spaced_selection(convex_front, 5)
        values = convex_front[picks, 0]
        assert values.min() == pytest.approx(0.0)
        assert values.max() == pytest.approx(1.0)

    def test_count_larger_than_front_returns_all(self, convex_front):
        picks = equally_spaced_selection(convex_front, 100)
        assert sorted(picks) == list(range(convex_front.shape[0]))

    def test_invalid_arguments(self, convex_front):
        with pytest.raises(ConfigurationError):
            equally_spaced_selection(convex_front, 0)
        with pytest.raises(ConfigurationError):
            equally_spaced_selection(convex_front, 3, objective=5)

    def test_spacing_is_roughly_uniform(self):
        f1 = np.linspace(0.0, 1.0, 201)
        front = np.column_stack([f1, 1.0 - f1])
        picks = equally_spaced_selection(front, 11)
        values = np.sort(front[picks, 0])
        gaps = np.diff(values)
        assert gaps.max() < 0.2


class TestKnee:
    def test_knee_of_convex_front_is_interior(self, convex_front):
        index = knee_point(convex_front)
        assert 0.0 < convex_front[index, 0] < 1.0

    def test_knee_requires_two_objectives(self):
        with pytest.raises(ConfigurationError):
            knee_point(np.ones((4, 3)))


class TestMineFront:
    def test_contains_all_standard_selections(self, convex_front):
        selection = mine_front(convex_front, objective_names=["uptake", "nitrogen"])
        assert "closest_to_ideal" in selection.selections
        assert "min_uptake" in selection.selections
        assert "min_nitrogen" in selection.selections
        assert "knee" in selection.selections
        assert selection.objectives("min_uptake")[0] == pytest.approx(0.0)

    def test_wrong_number_of_names_rejected(self, convex_front):
        with pytest.raises(DimensionError):
            mine_front(convex_front, objective_names=["only-one"])
