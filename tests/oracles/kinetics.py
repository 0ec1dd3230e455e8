"""Naive reference implementations of the scalar kinetics stack.

These are the original per-design routines that the columnwise rate-law
evaluation (:meth:`tests.oracles.ode.rate_laws.RateLaw.rate_batch`) and the
population right-hand side (:meth:`tests.oracles.ode.network.KineticNetwork
.build_rhs_batch`) replace.  Each function walks the reactions in plain
Python exactly as the pre-vectorization code did and is kept verbatim in
algorithm as the executable specification of the fast paths:

* ``tests/kinetics/test_ode_equivalence.py`` asserts agreement between the
  batched evaluation and these loops on seeded parameter populations, and
  locks the reference trajectories themselves against pre-recorded golden
  fixtures under ``tests/kinetics/data/``;
* ``benchmarks/bench_kinetics.py`` times the batched right-hand side
  against these loops and records the speedups in ``BENCH_kinetics.json``.

The module lives outside the installed package; it exists for
verification and measurement only.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.exceptions import ConfigurationError
from tests.oracles.ode.network import KineticNetwork

__all__ = [
    "reference_rate",
    "reference_fluxes",
    "reference_build_rhs",
    "reference_rhs_population",
]


def reference_rate(rate_law, concentrations: Mapping[str, float], vmax: float) -> float:
    """Scalar rate of one rate law (delegates to the scalar ``rate`` hook).

    The scalar ``rate`` methods *are* the original implementations — they
    were never rewritten — so the reference simply routes through them; the
    batched ``rate_batch`` overrides are checked against this entry point
    column by column.
    """
    return rate_law.rate(concentrations, vmax)


def reference_fluxes(
    network: KineticNetwork,
    concentrations: Mapping[str, float],
    enzyme_scales: Mapping[str, float] | None = None,
) -> dict[str, float]:
    """Flux of every reaction via one scalar rate call per reaction."""
    scales = enzyme_scales or {}
    values: dict[str, float] = {}
    for identifier, reaction in zip(network.reaction_ids, network.reactions):
        scale = scales.get(reaction.enzyme, 1.0) if reaction.enzyme else 1.0
        values[identifier] = reaction.flux(concentrations, scale)
    return values


def reference_build_rhs(
    network: KineticNetwork, enzyme_scales: Mapping[str, float] | None = None
):
    """Compile the scalar ODE right-hand side ``f(t, y)`` (original loop)."""
    if not network.reactions:
        raise ConfigurationError("cannot build an ODE system with no reactions")
    scales = dict(enzyme_scales or {})
    dynamic = network.dynamic_metabolite_ids
    fixed = {
        m.identifier: m.initial_concentration
        for m in network.metabolites
        if m.fixed
    }
    reactions = network.reactions
    reaction_scales = [
        scales.get(r.enzyme, 1.0) if r.enzyme else 1.0 for r in reactions
    ]
    dynamic_index = {m: i for i, m in enumerate(dynamic)}
    couplings = [
        [
            (dynamic_index[species], coefficient)
            for species, coefficient in reaction.stoichiometry.items()
            if species in dynamic_index
        ]
        for reaction in reactions
    ]

    def rhs(_t: float, y: np.ndarray) -> np.ndarray:
        concentrations = dict(fixed)
        for i, identifier in enumerate(dynamic):
            value = y[i]
            concentrations[identifier] = value if value > 0.0 else 0.0
        derivative = np.zeros(len(dynamic))
        for reaction, scale, coupling in zip(reactions, reaction_scales, couplings):
            flux = reaction.rate_law.rate(concentrations, reaction.vmax * scale)
            for index, coefficient in coupling:
                derivative[index] += coefficient * flux
        return derivative

    return rhs


def reference_rhs_population(
    network: KineticNetwork,
    scale_rows: list[Mapping[str, float]],
    t: float,
    Y: np.ndarray,
) -> np.ndarray:
    """Right-hand side of a whole parameter population, one member at a time.

    ``Y`` is ``(P, n_dyn)`` — one state row per population member — and
    ``scale_rows`` holds one enzyme-scale mapping per member.  This is the
    loop a scalar caller runs today (rebuild the rhs closure per member,
    evaluate it on that member's state) and is what
    :meth:`~tests.oracles.ode.network.KineticNetwork.build_rhs_batch` must
    reproduce column for column.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or len(scale_rows) != Y.shape[0]:
        raise ConfigurationError(
            "Y must be (P, n_dyn) with one enzyme-scale mapping per row"
        )
    rows = []
    for scales, y in zip(scale_rows, Y):
        rhs = reference_build_rhs(network, scales)
        rows.append(rhs(t, y))
    return np.vstack(rows)
