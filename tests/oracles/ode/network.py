"""Kinetic network: assembles reactions into an ODE right-hand side.

A :class:`KineticNetwork` owns a set of metabolites and kinetic reactions and
compiles them into the vector field ``dC/dt = N · v(C)`` used by the
simulator.  Enzyme activities enter through a dictionary of per-enzyme scale
factors, which is how :class:`~tests.oracles.ode.calvin.CalvinCycleModel`
applies a design vector (the 23 enzyme activities map to 23 enzyme scales).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, ModelConsistencyError
from tests.oracles.ode.metabolite import Metabolite
from tests.oracles.ode.reaction import KineticReaction

__all__ = ["KineticNetwork"]


class KineticNetwork:
    """A set of metabolites and kinetic reactions forming an ODE model."""

    def __init__(self, name: str = "kinetic-network") -> None:
        self.name = name
        self._metabolites: dict[str, Metabolite] = {}
        self._reactions: dict[str, KineticReaction] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_metabolite(self, metabolite: Metabolite) -> None:
        """Register a metabolite; duplicated identifiers are rejected."""
        if metabolite.identifier in self._metabolites:
            raise ModelConsistencyError(
                "duplicate metabolite %s" % metabolite.identifier
            )
        self._metabolites[metabolite.identifier] = metabolite

    def add_metabolites(self, metabolites: Iterable[Metabolite]) -> None:
        """Register several metabolites."""
        for metabolite in metabolites:
            self.add_metabolite(metabolite)

    def add_reaction(self, reaction: KineticReaction) -> None:
        """Register a reaction; every referenced species must already exist."""
        if reaction.identifier in self._reactions:
            raise ModelConsistencyError("duplicate reaction %s" % reaction.identifier)
        for species in reaction.species():
            if species not in self._metabolites:
                raise ModelConsistencyError(
                    "reaction %s references unknown metabolite %s"
                    % (reaction.identifier, species)
                )
        self._reactions[reaction.identifier] = reaction

    def add_reactions(self, reactions: Iterable[KineticReaction]) -> None:
        """Register several reactions."""
        for reaction in reactions:
            self.add_reaction(reaction)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def metabolites(self) -> list[Metabolite]:
        """All registered metabolites (insertion order)."""
        return list(self._metabolites.values())

    @property
    def reactions(self) -> list[KineticReaction]:
        """All registered reactions (insertion order)."""
        return list(self._reactions.values())

    @property
    def metabolite_ids(self) -> list[str]:
        """Identifiers of all metabolites (insertion order)."""
        return list(self._metabolites)

    @property
    def reaction_ids(self) -> list[str]:
        """Identifiers of all reactions (insertion order)."""
        return list(self._reactions)

    @property
    def dynamic_metabolite_ids(self) -> list[str]:
        """Identifiers of metabolites whose concentration is integrated."""
        return [m.identifier for m in self._metabolites.values() if not m.fixed]

    def get_metabolite(self, identifier: str) -> Metabolite:
        """Look up a metabolite by identifier."""
        try:
            return self._metabolites[identifier]
        except KeyError as exc:
            raise KeyError("unknown metabolite %s" % identifier) from exc

    def get_reaction(self, identifier: str) -> KineticReaction:
        """Look up a reaction by identifier."""
        try:
            return self._reactions[identifier]
        except KeyError as exc:
            raise KeyError("unknown reaction %s" % identifier) from exc

    def enzymes(self) -> list[str]:
        """Distinct enzyme names referenced by the reactions (sorted)."""
        return sorted({r.enzyme for r in self._reactions.values() if r.enzyme})

    # ------------------------------------------------------------------
    # ODE assembly
    # ------------------------------------------------------------------
    def initial_state(self) -> np.ndarray:
        """Initial concentrations of the dynamic metabolites."""
        return np.array(
            [
                m.initial_concentration
                for m in self._metabolites.values()
                if not m.fixed
            ]
        )

    def stoichiometric_matrix(self) -> np.ndarray:
        """Dense stoichiometric matrix over dynamic metabolites (rows) and reactions."""
        dynamic = self.dynamic_metabolite_ids
        index = {m: i for i, m in enumerate(dynamic)}
        matrix = np.zeros((len(dynamic), len(self._reactions)))
        for j, reaction in enumerate(self._reactions.values()):
            for species, coefficient in reaction.stoichiometry.items():
                if species in index:
                    matrix[index[species], j] = coefficient
        return matrix

    def fluxes(
        self,
        concentrations: Mapping[str, float],
        enzyme_scales: Mapping[str, float] | None = None,
    ) -> dict[str, float]:
        """Flux of every reaction at the given concentrations."""
        scales = enzyme_scales or {}
        values: dict[str, float] = {}
        for identifier, reaction in self._reactions.items():
            scale = scales.get(reaction.enzyme, 1.0) if reaction.enzyme else 1.0
            values[identifier] = reaction.flux(concentrations, scale)
        return values

    def build_rhs(self, enzyme_scales: Mapping[str, float] | None = None):
        """Compile the ODE right-hand side ``f(t, y)`` for the dynamic species.

        Fixed metabolites are injected at their initial concentration on every
        call; concentrations are floored at zero before rate evaluation so the
        Michaelis-Menten laws remain well behaved if the integrator briefly
        undershoots.
        """
        if not self._reactions:
            raise ConfigurationError("cannot build an ODE system with no reactions")
        scales = dict(enzyme_scales or {})
        dynamic = self.dynamic_metabolite_ids
        fixed = {
            m.identifier: m.initial_concentration
            for m in self._metabolites.values()
            if m.fixed
        }
        reactions = list(self._reactions.values())
        reaction_scales = [
            scales.get(r.enzyme, 1.0) if r.enzyme else 1.0 for r in reactions
        ]
        dynamic_index = {m: i for i, m in enumerate(dynamic)}
        # Pre-resolve each reaction's stoichiometric couplings to dynamic species.
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

    def flux_matrix(
        self,
        concentrations: Mapping[str, np.ndarray],
        enzyme_scales: Sequence[Mapping[str, float]] | None = None,
    ) -> np.ndarray:
        """Fluxes of every reaction over a population of concentration columns.

        ``concentrations`` maps every metabolite identifier to a ``(P,)``
        column; ``enzyme_scales`` carries one scale mapping per member
        (``None`` means unscaled).  Returns a ``(P, n_reactions)`` matrix in
        reaction order whose entry ``[p, j]`` is bitwise identical to
        ``self.fluxes(member_p_concentrations, enzyme_scales[p])[reaction_j]``.
        """
        reactions = list(self._reactions.values())
        first = next(iter(concentrations.values()))
        members = np.asarray(first).shape[0]
        if enzyme_scales is None:
            scale_columns = [np.ones(members) for _ in reactions]
        else:
            if len(enzyme_scales) != members:
                raise ConfigurationError(
                    "need one enzyme-scale mapping per population member"
                )
            scale_columns = [
                np.array(
                    [
                        scales.get(reaction.enzyme, 1.0) if reaction.enzyme else 1.0
                        for scales in enzyme_scales
                    ]
                )
                for reaction in reactions
            ]
        matrix = np.empty((members, len(reactions)))
        for j, (reaction, scale_column) in enumerate(zip(reactions, scale_columns)):
            matrix[:, j] = reaction.rate_law.rate_batch(
                concentrations, reaction.vmax * scale_column
            )
        return matrix

    def build_rhs_batch(
        self, enzyme_scales: Sequence[Mapping[str, float] | None]
    ):
        """Compile the population ODE right-hand side ``F(t, Y)``.

        ``enzyme_scales`` carries one per-enzyme scale mapping per population
        member (``None`` entries mean unscaled); the returned callable maps a
        ``(P, n_dyn)`` state matrix to a ``(P, n_dyn)`` derivative matrix.
        Row ``p`` is bitwise identical to the scalar
        :meth:`build_rhs` closure built from ``enzyme_scales[p]`` evaluated on
        ``Y[p]``: concentrations are floored at zero columnwise, each rate law
        is evaluated through its columnwise :meth:`~tests.oracles.ode.rate_laws
        .RateLaw.rate_batch` form, and the derivative accumulates reaction by
        reaction in declaration order, so every member sees the exact
        floating-point operation sequence of its scalar counterpart.

        Evaluate a whole parameter ensemble in one call::

            rhs = network.build_rhs_batch([{"rubisco": 0.8}, {"rubisco": 1.2}])
            dY = rhs(0.0, Y)  # Y and dY are (2, n_dyn)
        """
        if not self._reactions:
            raise ConfigurationError("cannot build an ODE system with no reactions")
        members = len(enzyme_scales)
        scale_rows = [dict(scales or {}) for scales in enzyme_scales]
        dynamic = self.dynamic_metabolite_ids
        fixed_columns = {
            m.identifier: np.full(members, m.initial_concentration)
            for m in self._metabolites.values()
            if m.fixed
        }
        reactions = list(self._reactions.values())
        vmax_columns = [
            reaction.vmax
            * np.array(
                [
                    scales.get(reaction.enzyme, 1.0) if reaction.enzyme else 1.0
                    for scales in scale_rows
                ]
            )
            for reaction in reactions
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

        def rhs_batch(_t: float, Y: np.ndarray) -> np.ndarray:
            Y = np.asarray(Y, dtype=float)
            concentrations = dict(fixed_columns)
            for i, identifier in enumerate(dynamic):
                column = Y[:, i]
                concentrations[identifier] = np.where(column > 0.0, column, 0.0)
            derivative = np.zeros((Y.shape[0], len(dynamic)))
            for reaction, vmax_column, coupling in zip(
                reactions, vmax_columns, couplings
            ):
                flux = reaction.rate_law.rate_batch(concentrations, vmax_column)
                for index, coefficient in coupling:
                    derivative[:, index] += coefficient * flux
            return derivative

        return rhs_batch

    # ------------------------------------------------------------------
    # Consistency checks
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Run structural consistency checks; raises on problems."""
        if not self._metabolites:
            raise ModelConsistencyError("network has no metabolites")
        if not self._reactions:
            raise ModelConsistencyError("network has no reactions")
        produced_or_consumed = set()
        for reaction in self._reactions.values():
            produced_or_consumed.update(reaction.stoichiometry)
        orphans = [
            identifier
            for identifier, metabolite in self._metabolites.items()
            if not metabolite.fixed and identifier not in produced_or_consumed
        ]
        if orphans:
            raise ModelConsistencyError(
                "dynamic metabolites never used by any reaction: %s" % ", ".join(orphans)
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "KineticNetwork(%s: %d metabolites, %d reactions)" % (
            self.name,
            len(self._metabolites),
            len(self._reactions),
        )
