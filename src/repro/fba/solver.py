"""Flux balance analysis on top of :func:`scipy.optimize.linprog`.

Provides the linear programs that the COBRA toolbox supplies in the paper's
workflow: plain FBA (maximize one reaction flux subject to ``S v = 0`` and
the bounds) and the optimum of an arbitrary linear combination of fluxes.

Every LP shares the model's steady-state constraint matrix ``S v = 0``; only
the objective vector (and, for FVA, one optimality row) changes between
solves.  :class:`LPAssembly` captures the shared structure once:

* the stoichiometric matrix in CSC sparse form (what HiGHS consumes
  natively — :func:`scipy.optimize.linprog` converts dense inputs to sparse
  internally, so the sparse hand-off changes nothing numerically while
  skipping the dense detour);
* the bound vectors at assembly time;
* the reaction-identifier -> column-index map.

:meth:`LPAssembly.solve` then runs one LP with a per-call objective.
Solutions are bitwise identical to the per-call dense assembly of
``tests/oracles/fba.py`` (asserted by ``tests/fba/test_fba_equivalence.py``),
because the constraint system handed to HiGHS is value-for-value the same.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.exceptions import InfeasibleProblemError
from repro.fba.model import StoichiometricModel

__all__ = [
    "FBASolution",
    "LPAssembly",
    "assemble_lp",
    "flux_balance_analysis",
    "optimize_combination",
]


@dataclass
class FBASolution:
    """Result of a flux balance analysis (an LP that fails raises instead).

    Attributes
    ----------
    objective_value:
        Optimal value of the objective flux (or linear combination).
    fluxes:
        Mapping reaction identifier -> optimal flux.
    """

    objective_value: float
    fluxes: dict[str, float]

    def flux_vector(self, model: StoichiometricModel) -> np.ndarray:
        """Fluxes as a vector in the model's reaction order."""
        return np.array([self.fluxes[r] for r in model.reaction_ids])

    def __getitem__(self, reaction_id: str) -> float:
        return self.fluxes[reaction_id]


@dataclass
class LPAssembly:
    """One-time constraint assembly of a model's flux polytope.

    Attributes
    ----------
    name:
        Name of the source model (used in error messages).
    reaction_ids:
        Reaction identifiers in column order.
    matrix:
        The stoichiometric matrix as a CSC sparse matrix.
    lower, upper:
        Flux bound vectors snapshotted at assembly time.
    index:
        Reaction identifier -> column index.
    """

    name: str
    reaction_ids: tuple[str, ...]
    matrix: sparse.csc_matrix
    lower: np.ndarray
    upper: np.ndarray
    index: dict[str, int]

    @property
    def n_reactions(self) -> int:
        """Number of reactions (LP variables)."""
        return len(self.reaction_ids)

    def reaction_index(self, identifier: str) -> int:
        """Column index of a reaction in the assembled system."""
        try:
            return self.index[identifier]
        except KeyError as exc:
            raise KeyError("unknown reaction %s" % identifier) from exc

    def objective_vector(self, weights: dict[str, float]) -> np.ndarray:
        """Dense objective vector from an identifier -> weight mapping."""
        coefficients = np.zeros(self.n_reactions)
        for identifier, weight in weights.items():
            coefficients[self.reaction_index(identifier)] = weight
        return coefficients

    def solve(
        self,
        objective_coefficients: np.ndarray,
        maximize: bool,
        a_ub: np.ndarray | None = None,
        b_ub: np.ndarray | None = None,
    ) -> FBASolution:
        """One LP over the assembled polytope.

        Parameters
        ----------
        objective_coefficients:
            Dense objective vector (natural sign; negated internally when
            maximizing).
        maximize:
            Maximize (``True``) or minimize the objective.
        a_ub, b_ub:
            Optional inequality block (FVA's optimality constraint).
        """
        c = -objective_coefficients if maximize else objective_coefficients
        result = linprog(
            c,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=self.matrix,
            b_eq=np.zeros(self.matrix.shape[0]),
            bounds=list(zip(self.lower, self.upper)),
            method="highs",
        )
        if not result.success:
            raise InfeasibleProblemError(
                "FBA infeasible for model %s: %s" % (self.name, result.message)
            )
        return FBASolution(
            objective_value=float(objective_coefficients @ result.x),
            fluxes=dict(zip(self.reaction_ids, result.x)),
        )


def assemble_lp(model: StoichiometricModel) -> LPAssembly:
    """Build the shared LP assembly of a model (one matrix construction).

    A scan that solves many LPs over one polytope (FVA) assembles once and
    re-solves with per-call objectives::

        assembly = assemble_lp(model)
        for identifier in ("EX_ac_e", "BIOMASS"):
            objective = assembly.objective_vector({identifier: 1.0})
            highest = assembly.solve(objective, maximize=True)
    """
    reaction_ids = tuple(model.reaction_ids)
    lower, upper = model.bounds()
    return LPAssembly(
        name=model.name,
        reaction_ids=reaction_ids,
        matrix=sparse.csc_matrix(model.stoichiometric_matrix()),
        lower=lower,
        upper=upper,
        index={identifier: column for column, identifier in enumerate(reaction_ids)},
    )


def flux_balance_analysis(
    model: StoichiometricModel,
    objective: str | None = None,
    maximize: bool = True,
) -> FBASolution:
    """Classical FBA: optimize one reaction flux subject to ``S v = 0``.

    Parameters
    ----------
    model:
        The constraint-based model.
    objective:
        Reaction to optimize; defaults to ``model.objective``.
    maximize:
        Maximize (default) or minimize the objective flux.
    """
    target = objective or model.objective
    if target is None:
        raise InfeasibleProblemError("no objective reaction selected")
    return optimize_combination(model, {target: 1.0}, maximize)


def optimize_combination(
    model: StoichiometricModel,
    weights: dict[str, float],
    maximize: bool = True,
) -> FBASolution:
    """Optimize a weighted combination of reaction fluxes.

    Used to scalarize the electron-versus-biomass trade-off when constructing
    reference points for the Geobacter benchmark.
    """
    assembly = assemble_lp(model)
    return assembly.solve(assembly.objective_vector(weights), maximize)
