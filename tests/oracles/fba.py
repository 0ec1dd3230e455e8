"""Naive reference implementations of the scalar FBA stack.

These are the original per-call routines that the batched FBA paths
(:mod:`repro.fba.batch`, :mod:`repro.fba.solver` and
:mod:`repro.fba.variability`) replace.  Each function rebuilds the dense
stoichiometric matrix and the bound vectors from scratch on every call —
exactly as the pre-vectorization code did — and is kept verbatim in
algorithm as the executable specification of the fast paths:

* ``tests/fba/test_fba_equivalence.py`` asserts agreement between every
  batched operation and its reference on feasible, infeasible and
  degenerate models, and locks the reference outputs themselves against
  pre-recorded golden fixtures under ``tests/fba/data/``, whose knockout
  sections only the references below still compute;
* ``benchmarks/bench_fba.py`` times the batched paths against these
  loops and records the speedup trajectory in ``BENCH_fba.json``.

The module lives outside the installed package; it exists for
verification and measurement only.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy.optimize import linprog

from repro.exceptions import InfeasibleProblemError, ModelConsistencyError
from repro.fba.model import StoichiometricModel
from repro.fba.reaction import Reaction
from repro.fba.solver import FBASolution
from repro.fba.variability import FluxRange

__all__ = [
    "knock_out",
    "reference_solve",
    "reference_flux_balance_analysis",
    "reference_optimize_combination",
    "reference_constraint_violation",
    "reference_bound_violation",
    "reference_flux_variability_analysis",
    "reference_single_deletions",
    "reference_double_deletions",
]


def knock_out(reaction: Reaction) -> None:
    """Set both bounds of ``reaction`` to zero (gene deletion in the OptKnock sense)."""
    reaction.lower_bound = 0.0
    reaction.upper_bound = 0.0


class KnockoutOutcome(NamedTuple):
    """Phenotype of one knockout mutant (growth 0.0 and no production when lethal)."""

    reactions: tuple[str, ...]
    growth: float
    production: float | None
    lethal: bool


def reference_solve(
    model: StoichiometricModel,
    objective_coefficients: np.ndarray,
    maximize: bool,
) -> FBASolution:
    """One LP over the flux polytope, assembling dense constraints per call."""
    stoichiometric = model.stoichiometric_matrix()
    lower, upper = model.bounds()
    c = -objective_coefficients if maximize else objective_coefficients
    result = linprog(
        c,
        A_eq=stoichiometric,
        b_eq=np.zeros(stoichiometric.shape[0]),
        bounds=list(zip(lower, upper)),
        method="highs",
    )
    if not result.success:
        raise InfeasibleProblemError(
            "FBA infeasible for model %s: %s" % (model.name, result.message)
        )
    fluxes = dict(zip(model.reaction_ids, result.x))
    objective_value = float(objective_coefficients @ result.x)
    return FBASolution(objective_value=objective_value, fluxes=fluxes)


def reference_flux_balance_analysis(
    model: StoichiometricModel,
    objective: str | None = None,
    maximize: bool = True,
) -> FBASolution:
    """Classical FBA through :func:`reference_solve`."""
    target = objective or model.objective
    if target is None:
        raise InfeasibleProblemError("no objective reaction selected")
    coefficients = np.zeros(model.n_reactions)
    coefficients[model.reaction_index(target)] = 1.0
    return reference_solve(model, coefficients, maximize)


def reference_optimize_combination(
    model: StoichiometricModel,
    weights: dict[str, float],
    maximize: bool = True,
) -> FBASolution:
    """Weighted-combination FBA through :func:`reference_solve`."""
    coefficients = np.zeros(model.n_reactions)
    for identifier, weight in weights.items():
        coefficients[model.reaction_index(identifier)] = weight
    return reference_solve(model, coefficients, maximize)


def reference_constraint_violation(
    model: StoichiometricModel, fluxes: Sequence[float], norm: str = "l1"
) -> float:
    """Violation of ``S v = 0``, rebuilding ``S`` on every call."""
    fluxes = np.asarray(fluxes, dtype=float)
    if fluxes.shape != (model.n_reactions,):
        raise ModelConsistencyError(
            "flux vector must have %d entries, got %r"
            % (model.n_reactions, fluxes.shape)
        )
    residual = model.stoichiometric_matrix() @ fluxes
    if norm == "l1":
        return float(np.sum(np.abs(residual)))
    if norm == "l2":
        return float(np.linalg.norm(residual))
    if norm == "linf":
        return float(np.max(np.abs(residual)))
    raise ModelConsistencyError("unknown norm %r" % norm)


def reference_bound_violation(
    model: StoichiometricModel, fluxes: Sequence[float]
) -> float:
    """Total box-bound violation, rebuilding the bound vectors per call."""
    fluxes = np.asarray(fluxes, dtype=float)
    lower, upper = model.bounds()
    return float(
        np.sum(np.clip(lower - fluxes, 0.0, None))
        + np.sum(np.clip(fluxes - upper, 0.0, None))
    )


def reference_flux_variability_analysis(
    model: StoichiometricModel,
    reactions: list[str] | None = None,
    objective: str | None = None,
    fraction_of_optimum: float = 1.0,
) -> dict[str, FluxRange]:
    """FVA with two dense LP solves per target reaction."""
    if not 0.0 <= fraction_of_optimum <= 1.0:
        raise InfeasibleProblemError("fraction_of_optimum must be in [0, 1]")
    target = objective or model.objective
    stoichiometric = model.stoichiometric_matrix()
    lower, upper = model.bounds()
    n = model.n_reactions
    a_eq = stoichiometric
    b_eq = np.zeros(stoichiometric.shape[0])
    a_ub = None
    b_ub = None
    if target is not None and fraction_of_optimum > 0.0:
        optimum = reference_flux_balance_analysis(model, target).objective_value
        row = np.zeros(n)
        row[model.reaction_index(target)] = -1.0
        a_ub = row.reshape(1, -1)
        b_ub = np.array([-fraction_of_optimum * optimum])

    targets = reactions if reactions is not None else model.reaction_ids
    ranges: dict[str, FluxRange] = {}
    bounds = list(zip(lower, upper))
    for identifier in targets:
        index = model.reaction_index(identifier)
        c = np.zeros(n)
        c[index] = 1.0
        extremes = []
        for sign in (1.0, -1.0):
            result = linprog(
                sign * c,
                A_ub=a_ub,
                b_ub=b_ub,
                A_eq=a_eq,
                b_eq=b_eq,
                bounds=bounds,
                method="highs",
            )
            if not result.success:
                raise InfeasibleProblemError(
                    "FVA sub-problem infeasible for %s" % identifier
                )
            extremes.append(float(result.x[index]))
        ranges[identifier] = FluxRange(
            reaction_id=identifier,
            minimum=min(extremes),
            maximum=max(extremes),
        )
    return ranges


def _reference_evaluate_knockout(
    model: StoichiometricModel,
    reactions: Sequence[str],
    objective: str,
    target: str | None,
    growth_threshold: float,
) -> KnockoutOutcome:
    """One mutant phenotype via a full model copy plus a fresh FBA solve."""
    mutant = model.copy()
    for identifier in reactions:
        knock_out(mutant.get_reaction(identifier))
    try:
        solution = reference_flux_balance_analysis(mutant, objective)
    except InfeasibleProblemError:
        return KnockoutOutcome(tuple(reactions), 0.0, None, True)
    growth = float(solution.objective_value)
    lethal = growth < growth_threshold
    production = None
    if target is not None and not lethal:
        production = float(solution[target])
    return KnockoutOutcome(tuple(reactions), growth, production, lethal)


def reference_single_deletions(
    model: StoichiometricModel,
    reactions: Iterable[str] | None = None,
    objective: str | None = None,
    target: str | None = None,
    growth_threshold: float = 1e-6,
) -> list[KnockoutOutcome]:
    """Single-deletion scan, re-assembling the whole model per mutant."""
    objective = objective or model.objective
    if objective is None:
        raise InfeasibleProblemError("no growth objective selected")
    candidates = list(reactions) if reactions is not None else [
        r.identifier for r in model.reactions if not r.is_exchange and r.identifier != objective
    ]
    return [
        _reference_evaluate_knockout(model, [identifier], objective, target, growth_threshold)
        for identifier in candidates
    ]


def reference_double_deletions(
    model: StoichiometricModel,
    reactions: Sequence[str],
    objective: str | None = None,
    target: str | None = None,
    growth_threshold: float = 1e-6,
) -> list[KnockoutOutcome]:
    """Pairwise-deletion scan, re-assembling the whole model per mutant."""
    objective = objective or model.objective
    if objective is None:
        raise InfeasibleProblemError("no growth objective selected")
    return [
        _reference_evaluate_knockout(model, list(pair), objective, target, growth_threshold)
        for pair in combinations(reactions, 2)
    ]
