"""Constraint-based metabolic model (the COBRA-toolbox replacement).

A :class:`StoichiometricModel` owns metabolites and reactions, builds the
stoichiometric matrix ``S`` and exposes the operations the paper relies on:
flux bounds manipulation, objective selection, steady-state constraint
violation of an arbitrary flux vector, and (through
:mod:`repro.fba.solver`) flux balance analysis.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.exceptions import ModelConsistencyError
from repro.fba.batch import ResidualPlan
from repro.fba.metabolite import Metabolite
from repro.fba.reaction import Reaction

__all__ = ["StoichiometricModel"]


class StoichiometricModel:
    """A genome-scale (or core) constraint-based metabolic model."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._metabolites: dict[str, Metabolite] = {}
        self._reactions: dict[str, Reaction] = {}
        self.objective: str | None = None
        # Structural caches, invalidated whenever a metabolite or reaction is
        # added.  Bounds are deliberately *not* cached: callers mutate them in
        # place (knockouts, flux caps) without notifying the model.
        self._dense_cache: np.ndarray | None = None
        self._reaction_index_cache: dict[str, int] | None = None
        self._residual_plan_cache: ResidualPlan | None = None

    def _invalidate_caches(self) -> None:
        self._dense_cache = None
        self._reaction_index_cache = None
        self._residual_plan_cache = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_metabolite(self, metabolite: Metabolite) -> None:
        """Register a metabolite; duplicates are rejected."""
        if metabolite.identifier in self._metabolites:
            raise ModelConsistencyError("duplicate metabolite %s" % metabolite.identifier)
        self._metabolites[metabolite.identifier] = metabolite
        self._invalidate_caches()

    def add_metabolites(self, metabolites: Iterable[Metabolite]) -> None:
        """Register several metabolites."""
        for metabolite in metabolites:
            self.add_metabolite(metabolite)

    def add_reaction(self, reaction: Reaction, allow_new_metabolites: bool = False) -> None:
        """Register a reaction.

        With ``allow_new_metabolites`` unknown species are created on the fly
        (compartment inferred from the ``_c`` / ``_e`` suffix), which keeps
        the synthetic genome-scale builder concise.
        """
        if reaction.identifier in self._reactions:
            raise ModelConsistencyError("duplicate reaction %s" % reaction.identifier)
        for species in reaction.stoichiometry:
            if species not in self._metabolites:
                if not allow_new_metabolites:
                    raise ModelConsistencyError(
                        "reaction %s references unknown metabolite %s"
                        % (reaction.identifier, species)
                    )
                compartment = "e" if species.endswith("_e") else "c"
                self._metabolites[species] = Metabolite(species, compartment=compartment)
        self._reactions[reaction.identifier] = reaction
        self._invalidate_caches()

    def add_reactions(self, reactions: Iterable[Reaction], allow_new_metabolites: bool = False) -> None:
        """Register several reactions."""
        for reaction in reactions:
            self.add_reaction(reaction, allow_new_metabolites=allow_new_metabolites)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def metabolites(self) -> list[Metabolite]:
        """All metabolites (insertion order)."""
        return list(self._metabolites.values())

    @property
    def reactions(self) -> list[Reaction]:
        """All reactions (insertion order)."""
        return list(self._reactions.values())

    @property
    def reaction_ids(self) -> list[str]:
        """Identifiers of all reactions (insertion order)."""
        return list(self._reactions)

    @property
    def n_metabolites(self) -> int:
        """Number of metabolites."""
        return len(self._metabolites)

    @property
    def n_reactions(self) -> int:
        """Number of reactions."""
        return len(self._reactions)

    def get_reaction(self, identifier: str) -> Reaction:
        """Look up a reaction by identifier."""
        try:
            return self._reactions[identifier]
        except KeyError as exc:
            raise KeyError("unknown reaction %s" % identifier) from exc

    def reaction_index(self, identifier: str) -> int:
        """Column index of a reaction in the stoichiometric matrix."""
        if self._reaction_index_cache is None:
            self._reaction_index_cache = {
                identifier: index for index, identifier in enumerate(self._reactions)
            }
        try:
            return self._reaction_index_cache[identifier]
        except KeyError as exc:
            raise KeyError("unknown reaction %s" % identifier) from exc

    # ------------------------------------------------------------------
    # Numerical views
    # ------------------------------------------------------------------
    def stoichiometric_matrix(self) -> np.ndarray:
        """Dense stoichiometric matrix ``S`` (metabolites x reactions).

        The matrix is cached against structural mutations (adding metabolites
        or reactions); callers receive a fresh copy so they may mutate the
        result freely, as they could when every call rebuilt the matrix.
        """
        return np.array(self._dense_stoichiometry(), copy=True)

    def _dense_stoichiometry(self) -> np.ndarray:
        """The cached dense ``S``; shared storage, callers must not write."""
        if self._dense_cache is None:
            index = {m: i for i, m in enumerate(self._metabolites)}
            matrix = np.zeros((len(self._metabolites), len(self._reactions)))
            for j, reaction in enumerate(self._reactions.values()):
                for species, coefficient in reaction.stoichiometry.items():
                    matrix[index[species], j] = coefficient
            self._dense_cache = matrix
        return self._dense_cache

    def _residual_plan(self) -> ResidualPlan:
        """The cached sparse plan of the steady-state residual ``S v``."""
        if self._residual_plan_cache is None:
            self._residual_plan_cache = ResidualPlan(self._dense_stoichiometry())
        return self._residual_plan_cache

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper flux bound vectors (reaction order)."""
        lower = np.array([r.lower_bound for r in self._reactions.values()])
        upper = np.array([r.upper_bound for r in self._reactions.values()])
        return lower, upper

    def set_bounds(self, identifier: str, lower: float, upper: float) -> None:
        """Set both flux bounds of one reaction."""
        reaction = self.get_reaction(identifier)
        if lower > upper:
            raise ModelConsistencyError("lower bound above upper bound for %s" % identifier)
        reaction.lower_bound = lower
        reaction.upper_bound = upper

    def fix_flux(self, identifier: str, value: float) -> None:
        """Clamp a reaction flux to a single value (e.g. the ATP maintenance)."""
        self.set_bounds(identifier, value, value)

    def set_objective(self, identifier: str) -> None:
        """Select the reaction whose flux FBA maximizes."""
        if identifier not in self._reactions:
            raise KeyError("unknown reaction %s" % identifier)
        self.objective = identifier

    # ------------------------------------------------------------------
    # Consistency checks and copies
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Structural consistency checks; raises on problems."""
        if not self._metabolites or not self._reactions:
            raise ModelConsistencyError("model must have metabolites and reactions")
        used = set()
        for reaction in self._reactions.values():
            used.update(reaction.stoichiometry)
        orphans = [m for m in self._metabolites if m not in used]
        if orphans:
            raise ModelConsistencyError(
                "metabolites never used by any reaction: %s" % ", ".join(sorted(orphans)[:5])
            )
        if self.objective is not None and self.objective not in self._reactions:
            raise ModelConsistencyError("objective %s is not a reaction" % self.objective)

    def copy(self) -> "StoichiometricModel":
        """Deep copy (reactions are copied; metabolites are immutable)."""
        clone = StoichiometricModel(self.name)
        clone.add_metabolites(self.metabolites)
        clone.add_reactions(r.copy() for r in self.reactions)
        clone.objective = self.objective
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "StoichiometricModel(%s: %d metabolites, %d reactions)" % (
            self.name,
            self.n_metabolites,
            self.n_reactions,
        )
