"""Tests for conserved-moiety analysis."""

import numpy as np
import pytest

from repro.exceptions import DimensionError
from tests.oracles.ode import (
    KineticNetwork,
    KineticReaction,
    KineticSimulator,
    MassAction,
    Metabolite,
    check_conservation,
    conservation_relations,
    conserved_totals,
)


def cofactor_cycle_network():
    """ATP <-> ADP cycling driven by two mass-action reactions.

    The adenylate total (ATP + ADP) is conserved.
    """
    network = KineticNetwork("cofactor")
    network.add_metabolites(
        [
            Metabolite("ATP", initial_concentration=1.5),
            Metabolite("ADP", initial_concentration=0.5),
        ]
    )
    network.add_reactions(
        [
            KineticReaction(
                "use", {"ATP": -1, "ADP": 1}, MassAction(substrates=["ATP"], forward_constant=0.7)
            ),
            KineticReaction(
                "regen", {"ADP": -1, "ATP": 1}, MassAction(substrates=["ADP"], forward_constant=1.3)
            ),
        ]
    )
    return network


class TestConservationRelations:
    def test_adenylate_pool_is_detected(self):
        network = cofactor_cycle_network()
        relations = conservation_relations(network)
        assert relations.shape[0] == 1
        # The relation is proportional to (1, 1).
        ratio = relations[0, 0] / relations[0, 1]
        assert ratio == pytest.approx(1.0)

    def test_open_chain_has_no_conserved_moiety(self):
        network = KineticNetwork("open")
        network.add_metabolites([Metabolite("A", initial_concentration=1.0), Metabolite("B")])
        network.add_reactions(
            [
                KineticReaction("in", {"A": 1}, MassAction(substrates=[], forward_constant=0.0)),
                KineticReaction("a_to_b", {"A": -1, "B": 1}, MassAction(substrates=["A"])),
                KineticReaction("out", {"B": -1}, MassAction(substrates=["B"])),
            ]
        )
        relations = conservation_relations(network)
        assert relations.shape[0] == 0

    def test_conserved_totals_value(self):
        network = cofactor_cycle_network()
        relations = conservation_relations(network)
        totals = conserved_totals(relations, np.array([1.5, 0.5]))
        assert totals.shape == (1,)
        assert abs(totals[0]) == pytest.approx(2.0 / np.sqrt(2.0), rel=1e-6)

    def test_conserved_totals_dimension_check(self):
        relations = np.array([[1.0, 1.0]])
        with pytest.raises(DimensionError):
            conserved_totals(relations, np.ones(3))


class TestTrajectoryConservation:
    def test_simulated_trajectory_respects_conservation(self):
        network = cofactor_cycle_network()
        relations = conservation_relations(network)
        simulator = KineticSimulator(network)
        result = simulator.simulate(t_end=20.0, n_points=100)
        assert check_conservation(relations, result.concentrations)

    def test_violating_trajectory_is_flagged(self):
        relations = np.array([[1.0, 1.0]])
        trajectory = np.array([[1.0, 1.0], [1.0, 2.0]])
        assert not check_conservation(relations, trajectory, rtol=1e-6)

    def test_empty_inputs_pass(self):
        assert check_conservation(np.empty((0, 0)), np.empty((0, 0)))
