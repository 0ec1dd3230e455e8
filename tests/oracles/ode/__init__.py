"""Kinetic ODE model of C3 carbon metabolism, kept as a cross-validation oracle.

The paper adopts the kinetic model of Zhu, de Sturler & Long (2007); the
optimizer runs the fast enzyme-limited steady-state model of
:mod:`repro.photosynthesis.steady_state` instead.  This package holds the
detailed counterpart the fast model is checked against
(``tests/integration/test_cross_validation.py``): a generic kinetic-network
substrate (the metabolite/reaction vocabulary, Michaelis-Menten style rate
laws, ODE assembly and a steady-state simulator built on SciPy) and, in
:mod:`.calvin`, the Calvin-cycle network built on it.  Nothing in the
installed ``repro`` package imports it.
"""

from tests.oracles.ode.conservation import (
    check_conservation,
    conservation_relations,
    conserved_totals,
)
from tests.oracles.ode.metabolite import Metabolite
from tests.oracles.ode.network import KineticNetwork
from tests.oracles.ode.rate_laws import (
    ConstantFlux,
    MassAction,
    MichaelisMenten,
    MultiSubstrateMichaelisMenten,
    RapidEquilibrium,
    RateLaw,
    ReversibleMichaelisMenten,
)
from tests.oracles.ode.reaction import KineticReaction
from tests.oracles.ode.simulator import KineticSimulator, SimulationResult

__all__ = [
    "check_conservation",
    "conservation_relations",
    "conserved_totals",
    "Metabolite",
    "KineticNetwork",
    "ConstantFlux",
    "MassAction",
    "MichaelisMenten",
    "MultiSubstrateMichaelisMenten",
    "RapidEquilibrium",
    "RateLaw",
    "ReversibleMichaelisMenten",
    "KineticReaction",
    "KineticSimulator",
    "SimulationResult",
]
