"""Tests for the full kinetic ODE model of C3 carbon metabolism."""

import numpy as np
import pytest

from repro.exceptions import DimensionError
from repro.photosynthesis.conditions import condition
from repro.photosynthesis.enzymes import ENZYMES, natural_activities
from tests.oracles.ode import conservation_relations
from tests.oracles.ode.calvin import FLUX_PER_AREA, CalvinCycleModel, build_calvin_network


@pytest.fixture(scope="module")
def model():
    return CalvinCycleModel(condition("present", "low"))


@pytest.fixture(scope="module")
def natural_result(model):
    return model.steady_state()


class TestNetworkStructure:
    def test_every_design_enzyme_appears_in_the_network(self):
        network = build_calvin_network()
        network_enzymes = set(network.enzymes())
        for enzyme in ENZYMES:
            assert enzyme.key in network_enzymes

    def test_key_pathway_reactions_present(self):
        network = build_calvin_network()
        for reaction_id in (
            "rubisco_carboxylation",
            "rubisco_oxygenation",
            "sbpase",
            "prk",
            "adpgpp_starch",
            "gdc",
            "sps",
            "triose_phosphate_translocator",
            "atp_synthase",
        ):
            assert reaction_id in network.reaction_ids

    def test_network_validates(self):
        build_calvin_network().validate()

    def test_adenylate_pool_is_conserved_structurally(self):
        network = build_calvin_network()
        relations = conservation_relations(network)
        dynamic = network.dynamic_metabolite_ids
        atp = dynamic.index("ATP")
        adp = dynamic.index("ADP")
        # Some conservation relation must couple ATP and ADP with equal sign.
        couples = [
            row for row in relations
            if abs(row[atp]) > 1e-8 and np.isclose(row[atp], row[adp], rtol=1e-6)
        ]
        assert couples


class TestNaturalLeafBehaviour:
    def test_positive_uptake_for_natural_leaf(self, model):
        uptake = model.co2_uptake()
        assert 5.0 < uptake < 30.0

    def test_carboxylation_exceeds_photorespiratory_release(self, natural_result):
        assert (
            natural_result.fluxes["rubisco_carboxylation"]
            > natural_result.fluxes["gdc"]
        )

    def test_adenylate_total_is_preserved(self, model, natural_result):
        final = natural_result.final_concentrations()
        initial_total = 1.5 + 0.5
        assert final["ATP"] + final["ADP"] == pytest.approx(initial_total, rel=1e-3)

    def test_concentrations_remain_non_negative(self, natural_result):
        assert np.all(natural_result.concentrations[-1] >= -1e-6)

    def test_photorespiratory_chain_carries_flux(self, natural_result):
        assert natural_result.fluxes["rubisco_oxygenation"] > 0.0
        assert natural_result.fluxes["pgca_phosphatase"] > 0.0
        assert natural_result.fluxes["gdc"] > 0.0

    def test_sucrose_and_starch_sinks_carry_flux(self, natural_result):
        assert natural_result.fluxes["adpgpp_starch"] > 0.0
        assert natural_result.fluxes["spp"] > 0.0


class TestDesignResponse:
    def test_uptake_increases_with_more_enzyme(self, model):
        natural = natural_activities()
        assert model.co2_uptake(natural * 1.5) > model.co2_uptake(natural * 0.5)

    def test_enzyme_scales_computed_relative_to_natural(self, model):
        natural = natural_activities()
        scales = model.enzyme_scales(natural * 2.0)
        assert all(value == pytest.approx(2.0) for value in scales.values())

    def test_wrong_dimension_rejected(self, model):
        with pytest.raises(DimensionError):
            model.enzyme_scales(np.ones(4))

    def test_flux_per_area_constant_is_positive(self):
        assert FLUX_PER_AREA > 0.0
