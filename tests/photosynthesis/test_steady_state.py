"""Tests for the fast enzyme-limited steady-state model."""

import numpy as np
import pytest

from repro.exceptions import DimensionError
from repro.photosynthesis.conditions import condition
from repro.photosynthesis.enzymes import enzyme_index, natural_activities
from repro.photosynthesis.steady_state import EnzymeLimitedModel


@pytest.fixture
def model():
    return EnzymeLimitedModel(condition("present", "low"))


@pytest.fixture
def natural():
    return natural_activities()


class TestNaturalLeafCalibration:
    def test_natural_uptake_near_paper_value(self, model):
        # Paper: natural leaf uptake ≈ 15.486 µmol m⁻² s⁻¹ at Ci = 270, low export.
        assert model.co2_uptake(natural_activities()) == pytest.approx(15.486, rel=0.10)

    def test_uptake_ordering_across_ci_scenarios(self, natural):
        past = EnzymeLimitedModel(condition("past", "low")).co2_uptake(natural)
        present = EnzymeLimitedModel(condition("present", "low")).co2_uptake(natural)
        future = EnzymeLimitedModel(condition("future", "low")).co2_uptake(natural)
        assert past < present < future

    def test_no_photorespiratory_shortfall_in_natural_leaf(self, model, natural):
        breakdown = model.breakdown(natural)
        assert breakdown.photorespiration_shortfall == pytest.approx(0.0)

    def test_natural_leaf_is_not_rubisco_limited(self, model, natural):
        # The natural leaf carries a Rubisco over-capacity (its nitrogen
        # reservoir role in the paper), so the limiting step is elsewhere.
        breakdown = model.breakdown(natural)
        assert breakdown.limiting_process != "rubisco"
        assert breakdown.rubisco_capacity > breakdown.gross_carboxylation


class TestMonotonicity:
    def test_scaling_all_enzymes_up_never_reduces_uptake(self, model, natural):
        base = model.co2_uptake(natural)
        assert model.co2_uptake(natural * 1.5) >= base
        assert model.co2_uptake(natural * 3.0) >= model.co2_uptake(natural * 1.5)

    def test_uptake_saturates_at_electron_transport_limit(self, model, natural):
        breakdown = model.breakdown(natural * 10.0)
        assert breakdown.limiting_process == "electron_transport"

    def test_higher_export_rate_never_hurts(self, natural):
        low = EnzymeLimitedModel(condition("present", "low")).co2_uptake(natural)
        high = EnzymeLimitedModel(condition("present", "high")).co2_uptake(natural)
        assert high >= low

    def test_removing_sbpase_reduces_uptake(self, model, natural):
        crippled = natural.copy()
        crippled[enzyme_index("sbpase")] *= 0.2
        assert model.co2_uptake(crippled) < model.co2_uptake(natural)

    def test_cutting_photorespiratory_enzymes_creates_shortfall_penalty(self, model, natural):
        crippled = natural.copy()
        for key in ("pgca_phosphatase", "goa_oxidase", "ggat", "gdc"):
            crippled[enzyme_index(key)] *= 0.05
        breakdown = model.breakdown(crippled)
        assert breakdown.photorespiration_shortfall > 0.0
        assert breakdown.net_uptake < model.co2_uptake(natural)

    def test_f26bpase_regulates_sucrose_flux(self, model, natural):
        with_regulator = natural.copy()
        without_regulator = natural.copy()
        without_regulator[enzyme_index("f26bpase")] = 1e-9
        flux_with = model.breakdown(with_regulator).sucrose_flux
        flux_without = model.breakdown(without_regulator).sucrose_flux
        assert flux_without < flux_with


class TestInterface:
    def test_wrong_dimension_rejected(self, model):
        with pytest.raises(DimensionError):
            model.co2_uptake(np.ones(5))

    def test_negative_activities_are_clipped(self, model, natural):
        noisy = natural.copy()
        noisy[3] = -1.0
        assert np.isfinite(model.co2_uptake(noisy))

    def test_breakdown_fields_are_consistent(self, model, natural):
        breakdown = model.breakdown(natural)
        assert breakdown.gross_carboxylation == pytest.approx(
            min(
                breakdown.rubisco_capacity,
                breakdown.regeneration_capacity,
                breakdown.electron_transport_capacity,
                breakdown.triose_use_capacity / model.condition.net_fraction,
            )
        )
        assert breakdown.oxygenation == pytest.approx(
            model.condition.oxygenation_ratio * breakdown.gross_carboxylation
        )

    def test_evaluation_is_fast_enough_for_optimization(self, model, natural):
        import time

        start = time.perf_counter()
        for _ in range(500):
            model.co2_uptake(natural)
        elapsed = time.perf_counter() - start
        # 500 evaluations well under a second keeps PMO2 runs tractable.
        assert elapsed < 1.0
