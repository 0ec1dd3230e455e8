"""Equivalence suite: batched kinetics vs the preserved scalar references.

The columnwise rate laws (:meth:`~tests.oracles.ode.rate_laws.RateLaw
.rate_batch`), the population right-hand side
(:meth:`~tests.oracles.ode.network.KineticNetwork.build_rhs_batch`) and the
ensemble simulator must reproduce the naive per-member loops preserved in
``tests/oracles/kinetics.py`` *bitwise*.  The suite checks that three
ways:

* element-for-element comparisons of every rate law, the flux matrix and
  the population RHS over seeded parameter populations (including rows
  with zero and negative concentrations, which exercise the flooring and
  depletion guards),
* a golden JSON fixture (``data/golden_ode_reference.json``) holding a
  reference ODE trajectory and a reference RHS-population evaluation of
  the Calvin-cycle network, which both implementations must reproduce
  byte for byte,
* chunk-invariance of the batch paths (the pooled evaluator ships row
  chunks, so splitting a population must not change any member).

Regenerate the fixture (only after an intentional behavior change) with::

    PYTHONPATH=src python -m tests.kinetics.test_ode_equivalence
"""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from tests.oracles.ode import (
    ConstantFlux,
    KineticNetwork,
    KineticReaction,
    KineticSimulator,
    MassAction,
    Metabolite,
    MichaelisMenten,
    MultiSubstrateMichaelisMenten,
    RapidEquilibrium,
    ReversibleMichaelisMenten,
)
from tests.oracles.kinetics import (
    reference_build_rhs,
    reference_fluxes,
    reference_rate,
    reference_rhs_population,
)
from tests.oracles.ode.calvin import build_calvin_network

GOLDEN_FIXTURE = Path(__file__).parent / "data" / "golden_ode_reference.json"

#: One instance of every rate law, with the optional features switched on.
RATE_LAWS = {
    "mass_action": MassAction(substrates=["A", "B"], forward_constant=1.3),
    "mass_action_reversible": MassAction(
        substrates=["A"], products=["C"], forward_constant=1.3, reverse_constant=0.4
    ),
    "michaelis_menten": MichaelisMenten(substrate="A", km=0.7),
    "michaelis_menten_modulated": MichaelisMenten(
        substrate="A", km=0.7, inhibitors={"B": 0.5}, activators={"C": 0.2}
    ),
    "multi_substrate": MultiSubstrateMichaelisMenten(
        substrates={"A": 0.4, "B": 1.1}, inhibitors={"C": 0.9}
    ),
    "reversible_michaelis_menten": ReversibleMichaelisMenten(
        substrate="A", product="C", km_substrate=0.5, km_product=1.5, keq=2.0
    ),
    "rapid_equilibrium": RapidEquilibrium(substrate="A", product="C", keq=3.0),
    "constant_flux": ConstantFlux(value=0.8),
    "constant_flux_carried": ConstantFlux(value=0.8, carrier="A", km=0.3),
}


def _species_population(members: int = 24, seed: int = 11) -> dict[str, np.ndarray]:
    """Seeded concentration columns, including exact zeros on every species."""
    rng = np.random.default_rng(seed)
    columns = {
        name: rng.uniform(0.0, 3.0, size=members) for name in ("A", "B", "C")
    }
    for offset, column in enumerate(columns.values()):
        column[offset::5] = 0.0  # depleted members hit the early-return guards
    return columns


def _calvin_population(network, members: int = 16, seed: int = 3):
    """Seeded (scales, states) population for the Calvin-cycle network."""
    rng = np.random.default_rng(seed)
    enzymes = network.enzymes()
    scales = [
        {name: float(value) for name, value in zip(enzymes, row)}
        for row in rng.uniform(0.5, 1.5, size=(members, len(enzymes)))
    ]
    base = network.initial_state()
    Y = base[None, :] * rng.uniform(0.5, 1.5, size=(members, base.size))
    Y[0, ::3] = -0.25  # undershooting members exercise the concentration floor
    Y[1] = 0.0
    return scales, Y


def source_sink_network():
    """Constant source into X with a Michaelis-Menten drain (toy trajectory)."""
    network = KineticNetwork("source-sink")
    network.add_metabolites(
        [Metabolite("X", initial_concentration=0.0), Metabolite("SINK", fixed=True)]
    )
    network.add_reactions(
        [
            KineticReaction("source", {"X": 1}, ConstantFlux(1.0)),
            KineticReaction(
                "sink",
                {"X": -1, "SINK": 1},
                MichaelisMenten("X", km=1.0),
                enzyme="drain",
                vmax=2.0,
            ),
        ]
    )
    return network


# ----------------------------------------------------------------------
# Canonical payload shared by the recorder and both equivalence checks
# ----------------------------------------------------------------------
def _reference_trajectory(network, t_end: float, enzyme_scales, n_points: int) -> dict:
    """Reference ODE trajectory, mirroring the simulator's packaging exactly."""
    rhs = reference_build_rhs(network, enzyme_scales)
    solution = solve_ivp(
        rhs,
        (0.0, t_end),
        network.initial_state(),
        method="LSODA",
        rtol=1e-6,
        atol=1e-9,
        t_eval=np.linspace(0.0, t_end, max(2, n_points)),
    )
    assert solution.success
    states = solution.y.T
    final = states[-1]
    concentrations = dict(zip(network.dynamic_metabolite_ids, np.maximum(final, 0.0)))
    for metabolite in network.metabolites:
        if metabolite.fixed:
            concentrations[metabolite.identifier] = metabolite.initial_concentration
    return {
        "times": solution.t.tolist(),
        "concentrations": states.tolist(),
        "metabolite_ids": network.dynamic_metabolite_ids,
        "fluxes": reference_fluxes(network, concentrations, enzyme_scales),
    }


def _fast_trajectory(network, t_end: float, enzyme_scales, n_points: int) -> dict:
    result = KineticSimulator(network).simulate(
        t_end, enzyme_scales=enzyme_scales, n_points=n_points
    )
    return {
        "times": result.times.tolist(),
        "concentrations": result.concentrations.tolist(),
        "metabolite_ids": result.metabolite_ids,
        "fluxes": result.fluxes,
    }


_TRAJECTORY_SCALES = {"drain": 1.4}


def _payload(implementation: str) -> dict:
    calvin = build_calvin_network()
    scales, Y = _calvin_population(calvin)
    if implementation == "fast":
        trajectory = _fast_trajectory(source_sink_network(), 8.0, _TRAJECTORY_SCALES, 25)
        rhs_values = calvin.build_rhs_batch(scales)(0.0, Y)
    else:
        trajectory = _reference_trajectory(
            source_sink_network(), 8.0, _TRAJECTORY_SCALES, 25
        )
        rhs_values = reference_rhs_population(calvin, scales, 0.0, Y)
    return {
        "source_sink_trajectory": trajectory,
        "calvin_rhs_population": {
            "states": Y.tolist(),
            "derivatives": rhs_values.tolist(),
        },
    }


def _serialize(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# Golden fixture: both implementations reproduce the recording byte for byte
# ----------------------------------------------------------------------
class TestGoldenFixture:
    def test_fixture_is_sane(self):
        golden = json.loads(GOLDEN_FIXTURE.read_text(encoding="utf-8"))
        assert golden["source_sink_trajectory"]["times"]
        assert golden["calvin_rhs_population"]["derivatives"]

    def test_reference_reproduces_golden_fixture(self):
        golden = GOLDEN_FIXTURE.read_text(encoding="utf-8")
        assert _serialize(_payload("reference")) == golden

    def test_fast_stack_reproduces_golden_fixture(self):
        golden = GOLDEN_FIXTURE.read_text(encoding="utf-8")
        assert _serialize(_payload("fast")) == golden


# ----------------------------------------------------------------------
# Element-level agreement (sharper failures than the byte comparison)
# ----------------------------------------------------------------------
class TestRateLaws:
    @pytest.mark.parametrize("name", sorted(RATE_LAWS))
    def test_rate_batch_matches_scalar_columnwise(self, name):
        law = RATE_LAWS[name]
        columns = _species_population()
        vmax = np.random.default_rng(19).uniform(0.2, 2.0, size=24)
        batched = law.rate_batch(columns, vmax)
        looped = [
            reference_rate(
                law, {key: float(column[p]) for key, column in columns.items()}, vmax[p]
            )
            for p in range(24)
        ]
        assert batched.tolist() == looped


class TestNetworkBatch:
    def test_flux_matrix_matches_per_member_fluxes(self):
        calvin = build_calvin_network()
        scales, Y = _calvin_population(calvin)
        floored = {
            identifier: np.where(column > 0.0, column, 0.0)
            for identifier, column in zip(calvin.dynamic_metabolite_ids, Y.T)
        }
        for metabolite in calvin.metabolites:
            if metabolite.fixed:
                floored[metabolite.identifier] = np.full(
                    Y.shape[0], metabolite.initial_concentration
                )
        matrix = calvin.flux_matrix(floored, scales)
        for p, member_scales in enumerate(scales):
            member = {key: float(column[p]) for key, column in floored.items()}
            expected = reference_fluxes(calvin, member, member_scales)
            assert matrix[p].tolist() == list(expected.values())

    def test_rhs_batch_matches_reference_population(self):
        calvin = build_calvin_network()
        scales, Y = _calvin_population(calvin)
        batched = calvin.build_rhs_batch(scales)(0.0, Y)
        reference = reference_rhs_population(calvin, scales, 0.0, Y)
        assert np.array_equal(batched, reference)

    def test_rhs_batch_is_chunk_invariant(self):
        calvin = build_calvin_network()
        scales, Y = _calvin_population(calvin)
        whole = calvin.build_rhs_batch(scales)(0.0, Y)
        split = np.vstack(
            [
                calvin.build_rhs_batch(scales[:5])(0.0, Y[:5]),
                calvin.build_rhs_batch(scales[5:])(0.0, Y[5:]),
            ]
        )
        assert np.array_equal(whole, split)


class TestEnsembleSimulation:
    def test_ensemble_matches_per_member_simulate(self):
        network = source_sink_network()
        simulator = KineticSimulator(network)
        ensemble_scales = [{"drain": 0.8}, {"drain": 1.0}, None, {"drain": 1.7}]
        results = simulator.simulate_ensemble(6.0, ensemble_scales, n_points=20)
        for scales, result in zip(ensemble_scales, results):
            single = simulator.simulate(6.0, enzyme_scales=scales, n_points=20)
            assert np.array_equal(result.concentrations, single.concentrations)
            assert result.fluxes == single.fluxes


if __name__ == "__main__":
    GOLDEN_FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_FIXTURE.write_text(_serialize(_payload("reference")), encoding="utf-8")
    print("recorded %s" % GOLDEN_FIXTURE)
