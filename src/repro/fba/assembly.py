"""Shared LP assembly: build the FBA constraint system once, solve many times.

Every LP the FBA stack solves — plain FBA, each of the ``2 n`` FVA
sub-problems, each knockout mutant — shares the same steady-state constraint
matrix ``S v = 0``; only the objective vector and the box bounds change
between solves.  The scalar code paths used to rebuild the dense matrix (and
copy the whole model, for knockouts) per solve, which dominated the cost of
every scan.  :class:`LPAssembly` captures the shared structure once:

* the stoichiometric matrix in CSC sparse form (what HiGHS consumes
  natively — :func:`scipy.optimize.linprog` converts dense inputs to sparse
  internally, so the sparse hand-off changes nothing numerically while
  skipping the dense detour);
* the bound vectors at assembly time;
* the reaction-identifier -> column-index map.

:meth:`LPAssembly.solve` then runs one LP with per-call objective and bound
overrides.  Solutions are bitwise identical to the per-call dense assembly
of ``tests/oracles/fba.py`` (asserted by
``tests/fba/test_fba_equivalence.py``), because the constraint system handed
to HiGHS is value-for-value the same.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.exceptions import InfeasibleProblemError
from repro.fba.model import StoichiometricModel
from repro.fba.solver import FBASolution

__all__ = ["LPAssembly", "assemble_lp"]


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

    def knockout_bounds(
        self, reactions: tuple[str, ...] | list[str]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bound vectors of the mutant with ``reactions`` knocked out."""
        lower = np.array(self.lower, copy=True)
        upper = np.array(self.upper, copy=True)
        for identifier in reactions:
            column = self.reaction_index(identifier)
            lower[column] = 0.0
            upper[column] = 0.0
        return lower, upper

    def solve(
        self,
        objective_coefficients: np.ndarray,
        maximize: bool,
        lower: np.ndarray | None = None,
        upper: np.ndarray | None = None,
        a_ub: np.ndarray | None = None,
        b_ub: np.ndarray | None = None,
    ) -> FBASolution:
        """One LP over the assembled polytope with per-call overrides.

        Parameters
        ----------
        objective_coefficients:
            Dense objective vector (natural sign; negated internally when
            maximizing, as the scalar solver always did).
        maximize:
            Maximize (``True``) or minimize the objective.
        lower, upper:
            Bound-vector overrides (e.g. a knockout's zeroed fluxes);
            defaults to the assembly-time bounds.
        a_ub, b_ub:
            Optional inequality block (FVA's optimality constraint).
        """
        if lower is None:
            lower = self.lower
        if upper is None:
            upper = self.upper
        c = -objective_coefficients if maximize else objective_coefficients
        result = linprog(
            c,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=self.matrix,
            b_eq=np.zeros(self.matrix.shape[0]),
            bounds=list(zip(lower, upper)),
            method="highs",
        )
        if not result.success:
            raise InfeasibleProblemError(
                "FBA infeasible for model %s: %s" % (self.name, result.message)
            )
        fluxes = dict(zip(self.reaction_ids, result.x))
        objective_value = float(objective_coefficients @ result.x)
        return FBASolution(
            objective_value=objective_value,
            fluxes=fluxes,
            info={"n_variables": self.n_reactions},
        )


def assemble_lp(model: StoichiometricModel) -> LPAssembly:
    """Build the shared LP assembly of a model (one matrix construction).

    Scans that solve many LP variants (FVA, knockout screens) assemble once
    and re-solve with per-variant bound overrides::

        assembly = assemble_lp(model)
        wild_type = assembly.solve(objective_vector(assembly, model.objective_id))
        for reaction in candidates:
            bounds = knockout_bounds(assembly, [reaction])
            knockout = assembly.solve(objective, bounds=bounds)
    """
    dense = model.stoichiometric_matrix()
    reaction_ids = tuple(model.reaction_ids)
    lower, upper = model.bounds()
    return LPAssembly(
        name=model.name,
        reaction_ids=reaction_ids,
        matrix=sparse.csc_matrix(dense),
        lower=lower,
        upper=upper,
        index={identifier: column for column, identifier in enumerate(reaction_ids)},
    )
