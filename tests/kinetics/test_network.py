"""Tests for kinetic network assembly and the ODE right-hand side."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ModelConsistencyError
from tests.oracles.ode import (
    KineticNetwork,
    KineticReaction,
    MassAction,
    Metabolite,
    MichaelisMenten,
)


def linear_chain_network():
    """A -> B -> C with simple Michaelis-Menten steps and a fixed source."""
    network = KineticNetwork("chain")
    network.add_metabolites(
        [
            Metabolite("A", initial_concentration=10.0, fixed=True),
            Metabolite("B", initial_concentration=0.0),
            Metabolite("C", initial_concentration=0.0),
        ]
    )
    network.add_reactions(
        [
            KineticReaction("r1", {"A": -1, "B": 1}, MichaelisMenten("A", km=1.0), enzyme="e1", vmax=2.0),
            KineticReaction("r2", {"B": -1, "C": 1}, MichaelisMenten("B", km=1.0), enzyme="e2", vmax=1.0),
        ]
    )
    return network


class TestConstruction:
    def test_duplicate_metabolite_rejected(self):
        network = KineticNetwork()
        network.add_metabolite(Metabolite("A"))
        with pytest.raises(ModelConsistencyError):
            network.add_metabolite(Metabolite("A"))

    def test_duplicate_reaction_rejected(self):
        network = linear_chain_network()
        with pytest.raises(ModelConsistencyError):
            network.add_reaction(
                KineticReaction("r1", {"B": -1}, MichaelisMenten("B", km=1.0))
            )

    def test_unknown_metabolite_rejected(self):
        network = KineticNetwork()
        network.add_metabolite(Metabolite("A"))
        with pytest.raises(ModelConsistencyError):
            network.add_reaction(
                KineticReaction("r", {"A": -1, "Z": 1}, MichaelisMenten("A", km=1.0))
            )

    def test_reaction_requires_stoichiometry(self):
        with pytest.raises(ConfigurationError):
            KineticReaction("empty", {}, MichaelisMenten("A", km=1.0))

    def test_negative_vmax_rejected(self):
        with pytest.raises(ConfigurationError):
            KineticReaction("bad", {"A": -1}, MichaelisMenten("A", km=1.0), vmax=-1.0)

    def test_validate_detects_orphan_metabolites(self):
        network = KineticNetwork()
        network.add_metabolites([Metabolite("A"), Metabolite("orphan")])
        network.add_reaction(KineticReaction("r", {"A": -1}, MichaelisMenten("A", km=1.0)))
        with pytest.raises(ModelConsistencyError):
            network.validate()

    def test_validate_passes_for_consistent_network(self):
        linear_chain_network().validate()

    def test_metabolite_rejects_negative_concentration(self):
        with pytest.raises(ValueError):
            Metabolite("A", initial_concentration=-1.0)


class TestIntrospection:
    def test_enzymes_listed(self):
        assert linear_chain_network().enzymes() == ["e1", "e2"]

    def test_dynamic_metabolites_exclude_fixed(self):
        network = linear_chain_network()
        assert network.dynamic_metabolite_ids == ["B", "C"]
        assert network.initial_state() == pytest.approx([0.0, 0.0])

    def test_stoichiometric_matrix_shape_and_entries(self):
        network = linear_chain_network()
        matrix = network.stoichiometric_matrix()
        assert matrix.shape == (2, 2)  # dynamic metabolites x reactions
        assert matrix[0, 0] == 1.0  # B produced by r1
        assert matrix[0, 1] == -1.0  # B consumed by r2

    def test_lookup_errors(self):
        network = linear_chain_network()
        with pytest.raises(KeyError):
            network.get_metabolite("missing")
        with pytest.raises(KeyError):
            network.get_reaction("missing")

    def test_reaction_str_and_species(self):
        network = linear_chain_network()
        reaction = network.get_reaction("r1")
        assert "r1" in str(reaction)
        assert reaction.reactants() == ["A"]
        assert reaction.products() == ["B"]


class TestFluxesAndRHS:
    def test_fluxes_respect_enzyme_scales(self):
        network = linear_chain_network()
        concentrations = {"A": 10.0, "B": 1.0, "C": 0.0}
        base = network.fluxes(concentrations)
        scaled = network.fluxes(concentrations, {"e1": 2.0})
        assert scaled["r1"] == pytest.approx(2.0 * base["r1"])
        assert scaled["r2"] == pytest.approx(base["r2"])

    def test_rhs_mass_balance_signs(self):
        network = linear_chain_network()
        rhs = network.build_rhs()
        derivative = rhs(0.0, np.array([0.0, 0.0]))
        # B is produced from the fixed source, C cannot be produced yet.
        assert derivative[0] > 0.0
        assert derivative[1] == pytest.approx(0.0)

    def test_rhs_floors_negative_concentrations(self):
        network = linear_chain_network()
        rhs = network.build_rhs()
        derivative = rhs(0.0, np.array([-1.0, 0.0]))
        assert np.all(np.isfinite(derivative))
        # A negative B is treated as zero, so r2 contributes nothing to C.
        assert derivative[1] == pytest.approx(0.0)

    def test_empty_network_cannot_build_rhs(self):
        network = KineticNetwork()
        network.add_metabolite(Metabolite("A"))
        with pytest.raises(ConfigurationError):
            network.build_rhs()

    def test_mass_action_network_rhs(self):
        network = KineticNetwork()
        network.add_metabolites([Metabolite("A", initial_concentration=2.0), Metabolite("B")])
        network.add_reaction(
            KineticReaction("r", {"A": -1, "B": 1}, MassAction(substrates=["A"], forward_constant=0.5))
        )
        rhs = network.build_rhs()
        derivative = rhs(0.0, np.array([2.0, 0.0]))
        assert derivative[0] == pytest.approx(-1.0)
        assert derivative[1] == pytest.approx(1.0)
