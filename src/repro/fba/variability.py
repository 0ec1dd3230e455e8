"""Flux variability analysis (FVA).

For every reaction, FVA computes the minimum and maximum flux compatible with
(a fraction of) the optimal objective.  It is the standard COBRA operation for
assessing how constrained each flux is, and is used by the Geobacter case
study to derive realistic per-flux bounds for the multi-objective search
space.

The constraint system is assembled **once**
(:func:`repro.fba.solver.assemble_lp`) and every per-reaction sub-problem
reuses it, instead of rebuilding the stoichiometric matrix ``2 n`` times as
the scalar loop preserved in ``tests/oracles/fba.py`` does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import InfeasibleProblemError
from repro.fba.model import StoichiometricModel
from repro.fba.solver import LPAssembly, assemble_lp

__all__ = ["FluxRange", "flux_variability_analysis"]


@dataclass(frozen=True)
class FluxRange:
    """Admissible flux interval of one reaction."""

    reaction_id: str
    minimum: float
    maximum: float


def _range_of(
    identifier: str,
    assembly: LPAssembly,
    a_ub: np.ndarray | None,
    b_ub: np.ndarray | None,
) -> FluxRange:
    """Min/max flux of one reaction over the assembled polytope (two LPs)."""
    c = assembly.objective_vector({identifier: 1.0})
    extremes = []
    for maximize in (False, True):
        try:
            solution = assembly.solve(c, maximize, a_ub=a_ub, b_ub=b_ub)
        except InfeasibleProblemError as exc:
            raise InfeasibleProblemError(
                "FVA sub-problem infeasible for %s" % identifier
            ) from exc
        extremes.append(float(solution.fluxes[identifier]))
    return FluxRange(
        reaction_id=identifier,
        minimum=min(extremes),
        maximum=max(extremes),
    )


def flux_variability_analysis(
    model: StoichiometricModel,
    reactions: list[str] | None = None,
    objective: str | None = None,
    fraction_of_optimum: float = 1.0,
) -> dict[str, FluxRange]:
    """Min/max flux of each reaction at a fraction of the FBA optimum.

    Parameters
    ----------
    model:
        The constraint-based model.
    reactions:
        Restrict the analysis to these reactions (default: all).
    objective:
        Objective reaction; defaults to ``model.objective``.  Pass
        ``fraction_of_optimum=0`` to explore the whole flux polytope without
        an optimality constraint.
    fraction_of_optimum:
        The objective flux is constrained to at least this fraction of its
        FBA optimum (1.0 = classical FVA).
    """
    if not 0.0 <= fraction_of_optimum <= 1.0:
        raise InfeasibleProblemError("fraction_of_optimum must be in [0, 1]")
    target = objective or model.objective
    assembly = assemble_lp(model)
    a_ub = None
    b_ub = None
    if target is not None and fraction_of_optimum > 0.0:
        objective_vector = assembly.objective_vector({target: 1.0})
        optimum = assembly.solve(objective_vector, maximize=True).objective_value
        row = np.zeros(assembly.n_reactions)
        row[assembly.reaction_index(target)] = -1.0
        a_ub = row.reshape(1, -1)
        b_ub = np.array([-fraction_of_optimum * optimum])

    targets = reactions if reactions is not None else model.reaction_ids
    return {
        identifier: _range_of(identifier, assembly, a_ub, b_ub) for identifier in targets
    }
