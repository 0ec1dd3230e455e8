"""Tests for the synthetic Geobacter sulfurreducens genome-scale model."""

import numpy as np
import pytest

from repro.exceptions import ModelConsistencyError
from repro.fba import flux_balance_analysis
from repro.geobacter.model_builder import (
    ACETATE_UPTAKE_LIMIT,
    ATP_MAINTENANCE_FLUX,
    ATP_MAINTENANCE_ID,
    BIOMASS_ID,
    ELECTRON_PRODUCTION_ID,
    TOTAL_REACTIONS,
    build_geobacter_model,
)
from tests.oracles.fba import reference_constraint_violation


@pytest.fixture(scope="module")
def model():
    return build_geobacter_model()


class TestStructure:
    def test_exact_published_reaction_count(self, model):
        assert model.n_reactions == TOTAL_REACTIONS == 608

    def test_key_reactions_exist(self, model):
        for reaction_id in (
            ELECTRON_PRODUCTION_ID,
            BIOMASS_ID,
            ATP_MAINTENANCE_ID,
            "EX_ac_e",
            "EX_fe3_e",
            "CS",
            "ATPS",
        ):
            assert reaction_id in model.reaction_ids

    def test_atp_maintenance_fixed_at_paper_value(self, model):
        atpm = model.get_reaction(ATP_MAINTENANCE_ID)
        assert atpm.lower_bound == pytest.approx(ATP_MAINTENANCE_FLUX)
        assert atpm.upper_bound == pytest.approx(ATP_MAINTENANCE_FLUX)
        assert ATP_MAINTENANCE_FLUX == pytest.approx(0.45)

    def test_acetate_is_the_only_carbon_source(self, model):
        uptakes = [
            r.identifier
            for r in model.reactions
            if r.is_exchange
            if r.lower_bound < 0 and r.identifier.startswith("EX_")
        ]
        assert "EX_ac_e" in uptakes
        carbon_uptakes = [r for r in uptakes if r in ("EX_ac_e", "EX_co2_e")]
        assert carbon_uptakes == ["EX_ac_e"]

    def test_model_validates(self, model):
        model.validate()

    def test_biomass_requires_every_peripheral_product(self, model):
        biomass = model.get_reaction(BIOMASS_ID)
        consumed = {m for m, c in biomass.stoichiometry.items() if c < 0}
        for product in ("ala_c", "trp_c", "amp_c", "pe_c", "hemeb_c"):
            assert product in consumed

    def test_too_many_pathway_steps_rejected(self):
        with pytest.raises(ModelConsistencyError):
            build_geobacter_model(steps_per_pathway=30)


class TestPhenotype:
    def test_growth_is_possible(self, model):
        solution = flux_balance_analysis(model, BIOMASS_ID)
        assert solution.objective_value > 0.05

    def test_maximal_growth_in_figure4_range(self, model):
        solution = flux_balance_analysis(model, BIOMASS_ID)
        # Paper's Figure 4 biomass values are ≈ 0.28-0.30 mmol/gDW/h; the
        # synthetic model is calibrated to the same order of magnitude.
        assert 0.1 < solution.objective_value < 1.0

    def test_electron_production_ceiling_near_8_electrons_per_acetate(self, model):
        solution = flux_balance_analysis(model, ELECTRON_PRODUCTION_ID)
        assert solution.objective_value == pytest.approx(8.0 * ACETATE_UPTAKE_LIMIT, rel=0.05)

    def test_electron_production_in_figure4_order_of_magnitude(self, model):
        solution = flux_balance_analysis(model, ELECTRON_PRODUCTION_ID)
        assert 100.0 < solution.objective_value < 250.0

    def test_growth_requires_acetate(self, model):
        blocked = model.copy()
        blocked.set_bounds("EX_ac_e", 0.0, 0.0)
        try:
            solution = flux_balance_analysis(blocked, BIOMASS_ID)
            assert solution.objective_value == pytest.approx(0.0, abs=1e-6)
        except Exception:
            # Equally acceptable: with no electron donor the fixed ATP
            # maintenance of 0.45 cannot be met, so the LP is infeasible.
            pass

    def test_growth_requires_electron_acceptor(self, model):
        blocked = model.copy()
        blocked.set_bounds("EX_fe3_e", 0.0, 0.0)
        try:
            solution = flux_balance_analysis(blocked, BIOMASS_ID)
            assert solution.objective_value == pytest.approx(0.0, abs=1e-6)
        except Exception:
            # Infeasible is also acceptable: without an acceptor the fixed
            # ATP maintenance cannot be met.
            pass

    def test_growth_and_electron_production_compete(self, model):
        max_electron = flux_balance_analysis(model, ELECTRON_PRODUCTION_ID)
        max_growth = flux_balance_analysis(model, BIOMASS_ID)
        assert max_electron[BIOMASS_ID] < max_growth.objective_value
        assert max_growth[ELECTRON_PRODUCTION_ID] < max_electron.objective_value

    def test_fba_solution_is_steady_state(self, model):
        solution = flux_balance_analysis(model, BIOMASS_ID)
        violation = reference_constraint_violation(model, solution.flux_vector(model))
        assert violation < 1e-4
