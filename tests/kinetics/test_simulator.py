"""Tests for the kinetic simulator (time course and steady state)."""

import numpy as np
import pytest

from repro.exceptions import EvaluationError
from tests.oracles.ode import (
    ConstantFlux,
    KineticNetwork,
    KineticReaction,
    KineticSimulator,
    MassAction,
    Metabolite,
    MichaelisMenten,
)


def source_sink_network(source_rate=1.0, sink_vmax=2.0):
    """Constant source into X, Michaelis-Menten drain out of X.

    The analytical steady state satisfies ``sink_vmax * X / (km + X) = source``.
    """
    network = KineticNetwork("source-sink")
    network.add_metabolites(
        [Metabolite("X", initial_concentration=0.0), Metabolite("SINK", fixed=True)]
    )
    network.add_reactions(
        [
            KineticReaction("source", {"X": 1}, ConstantFlux(source_rate)),
            KineticReaction(
                "sink", {"X": -1, "SINK": 1}, MichaelisMenten("X", km=1.0), enzyme="drain", vmax=sink_vmax
            ),
        ]
    )
    return network


class TestTimeCourse:
    def test_trajectory_shapes(self):
        simulator = KineticSimulator(source_sink_network())
        result = simulator.simulate(t_end=10.0, n_points=50)
        assert result.concentrations.shape == (50, 1)
        assert result.times[0] == 0.0
        assert result.times[-1] == pytest.approx(10.0)
        assert result.metabolite_ids == ["X"]

    def test_concentration_grows_from_source(self):
        simulator = KineticSimulator(source_sink_network())
        result = simulator.simulate(t_end=5.0)
        x = result.trajectory("X")
        assert x[-1] > x[0]

    def test_invalid_horizon_rejected(self):
        simulator = KineticSimulator(source_sink_network())
        with pytest.raises(EvaluationError):
            simulator.simulate(t_end=0.0)

    def test_custom_initial_state(self):
        simulator = KineticSimulator(source_sink_network())
        result = simulator.simulate(t_end=1.0, initial_state=np.array([5.0]))
        assert result.concentrations[0, 0] == pytest.approx(5.0)

    def test_final_concentrations_include_fixed_species(self):
        simulator = KineticSimulator(source_sink_network())
        result = simulator.simulate(t_end=1.0)
        final = result.final_concentrations()
        assert "X" in final


class TestSteadyState:
    def test_matches_analytical_steady_state(self):
        # source = 1, vmax = 2, km = 1  =>  X* = km * s / (vmax - s) = 1.
        simulator = KineticSimulator(source_sink_network(source_rate=1.0, sink_vmax=2.0))
        result = simulator.simulate_to_steady_state(t_max=500.0, tolerance=1e-6)
        assert result.steady_state
        assert result.final_concentrations()["X"] == pytest.approx(1.0, rel=1e-2)

    def test_fluxes_balance_at_steady_state(self):
        simulator = KineticSimulator(source_sink_network())
        result = simulator.simulate_to_steady_state(t_max=500.0)
        assert result.fluxes["sink"] == pytest.approx(result.fluxes["source"], rel=1e-2)

    def test_enzyme_scale_shifts_the_steady_state(self):
        simulator = KineticSimulator(source_sink_network())
        strong = simulator.simulate_to_steady_state(enzyme_scales={"drain": 4.0}, t_max=500.0)
        weak = simulator.simulate_to_steady_state(enzyme_scales={"drain": 1.0}, t_max=500.0)
        assert strong.final_concentrations()["X"] < weak.final_concentrations()["X"]

    def test_unreachable_steady_state_reported(self):
        # A pure source with no sink never settles.
        network = KineticNetwork("runaway")
        network.add_metabolite(Metabolite("X"))
        network.add_reaction(KineticReaction("source", {"X": 1}, ConstantFlux(1.0)))
        simulator = KineticSimulator(network)
        result = simulator.simulate_to_steady_state(t_max=5.0, t_block=1.0, tolerance=1e-9)
        assert not result.steady_state

    def test_unreachable_steady_state_can_raise(self):
        from repro.exceptions import ConvergenceError

        network = KineticNetwork("runaway")
        network.add_metabolite(Metabolite("X"))
        network.add_reaction(KineticReaction("source", {"X": 1}, ConstantFlux(1.0)))
        simulator = KineticSimulator(network)
        with pytest.raises(ConvergenceError):
            simulator.simulate_to_steady_state(
                t_max=5.0, t_block=1.0, tolerance=1e-9, raise_on_failure=True
            )

    def test_reversible_pair_settles_at_equilibrium_ratio(self):
        network = KineticNetwork("pair")
        network.add_metabolites(
            [Metabolite("A", initial_concentration=2.0), Metabolite("B", initial_concentration=0.0)]
        )
        network.add_reaction(
            KineticReaction(
                "iso",
                {"A": -1, "B": 1},
                MassAction(substrates=["A"], products=["B"], forward_constant=1.0, reverse_constant=0.5),
            )
        )
        simulator = KineticSimulator(network)
        result = simulator.simulate_to_steady_state(t_max=200.0)
        final = result.final_concentrations()
        assert final["B"] / final["A"] == pytest.approx(2.0, rel=1e-2)
        # Mass conservation of the pair.
        assert final["A"] + final["B"] == pytest.approx(2.0, rel=1e-3)
