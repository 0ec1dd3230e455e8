"""Tests for the enzyme control analysis."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DimensionError
from tests.oracles.control import (
    ControlCoefficient,
    control_coefficients,
    most_influential_enzymes,
)
from repro.photosynthesis.conditions import condition
from repro.photosynthesis.enzymes import enzyme_index, natural_activities
from repro.photosynthesis.steady_state import EnzymeLimitedModel


@pytest.fixture(scope="module")
def model():
    return EnzymeLimitedModel(condition("present", "low"))


class TestControlCoefficients:
    def test_one_coefficient_per_enzyme(self, model):
        coefficients = control_coefficients(model)
        assert len(coefficients) == 23
        names = {c.enzyme for c in coefficients}
        assert "Rubisco" in names and "SBPase" in names

    def test_coefficients_are_finite_and_bounded(self, model):
        coefficients = control_coefficients(model)
        for entry in coefficients:
            assert np.isfinite(entry.coefficient)
            assert -5.0 <= entry.coefficient <= 5.0

    def test_limiting_enzyme_controls_natural_leaf(self, model):
        # The natural leaf is regeneration-limited through SBPase in the fast
        # model, so SBPase must carry a clearly positive control coefficient.
        coefficients = {c.enzyme: c.coefficient for c in control_coefficients(model)}
        assert coefficients["SBPase"] > 0.3
        assert ControlCoefficient("SBPase", coefficients["SBPase"]).is_controlling

    def test_non_limiting_enzymes_have_negligible_control(self, model):
        coefficients = {c.enzyme: c.coefficient for c in control_coefficients(model)}
        # PRK has a large natural excess capacity and should not control.
        assert abs(coefficients["PRK"]) < 0.05

    def test_rubisco_controls_when_it_is_made_scarce(self, model):
        scarce = natural_activities()
        scarce[enzyme_index("rubisco")] *= 0.2
        names = most_influential_enzymes(model, scarce, count=2)
        assert "Rubisco" in names

    def test_paper_key_enzymes_appear_among_the_influential(self, model):
        """Rubisco, SBPase, ADPGPP and FBP aldolase drive uptake maximization."""
        # Evaluate the ranking at a balanced (uniformly doubled) design, where
        # the natural excesses are preserved but the sink is no longer the
        # only limitation.
        names = most_influential_enzymes(model, natural_activities(), count=6)
        assert "SBPase" in names

    def test_invalid_arguments(self, model):
        with pytest.raises(ConfigurationError):
            control_coefficients(model, relative_step=0.0)
        with pytest.raises(DimensionError):
            control_coefficients(model, activities=np.ones(3))
        with pytest.raises(ConfigurationError):
            most_influential_enzymes(model, count=0)
