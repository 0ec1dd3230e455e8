"""Reactions of constraint-based metabolic models."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError

__all__ = ["Reaction", "DEFAULT_BOUND"]

#: Default magnitude of an unconstrained flux bound (mmol gDW⁻¹ h⁻¹).
DEFAULT_BOUND = 1000.0


@dataclass
class Reaction:
    """One reaction of a constraint-based model.

    Attributes
    ----------
    identifier:
        Unique reaction identifier (e.g. ``"PGK"``, ``"EX_ac_e"``).
    stoichiometry:
        Mapping metabolite identifier -> signed coefficient (negative =
        consumed).
    lower_bound, upper_bound:
        Flux bounds in mmol gDW⁻¹ h⁻¹.  ``lower_bound < 0`` marks the reaction
        reversible.
    name:
        Human-readable name.
    subsystem:
        Pathway / subsystem label used for reporting and for building the
        synthetic genome-scale periphery.
    """

    identifier: str
    stoichiometry: dict[str, float]
    lower_bound: float = 0.0
    upper_bound: float = DEFAULT_BOUND
    name: str = ""
    subsystem: str = ""
    annotation: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.identifier:
            raise ConfigurationError("reaction identifier cannot be empty")
        if self.lower_bound > self.upper_bound:
            raise ConfigurationError(
                "reaction %s has lower bound above upper bound" % self.identifier
            )
        if not self.stoichiometry and not self.identifier.startswith(("EX_", "DM_", "SK_")):
            raise ConfigurationError(
                "reaction %s has an empty stoichiometry" % self.identifier
            )
        if not self.name:
            self.name = self.identifier

    # ------------------------------------------------------------------
    @property
    def is_reversible(self) -> bool:
        """``True`` when the flux may be negative."""
        return self.lower_bound < 0.0

    @property
    def is_exchange(self) -> bool:
        """``True`` for boundary (exchange/demand/sink) reactions."""
        return self.identifier.startswith(("EX_", "DM_", "SK_")) or all(
            coefficient < 0 for coefficient in self.stoichiometry.values()
        ) or all(coefficient > 0 for coefficient in self.stoichiometry.values())

    def reactants(self) -> list[str]:
        """Metabolites consumed by the forward direction."""
        return [m for m, c in self.stoichiometry.items() if c < 0]

    def products(self) -> list[str]:
        """Metabolites produced by the forward direction."""
        return [m for m, c in self.stoichiometry.items() if c > 0]

    def copy(self) -> "Reaction":
        """Deep copy of the reaction."""
        return Reaction(
            identifier=self.identifier,
            stoichiometry=dict(self.stoichiometry),
            lower_bound=self.lower_bound,
            upper_bound=self.upper_bound,
            name=self.name,
            subsystem=self.subsystem,
            annotation=dict(self.annotation),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        left = " + ".join(
            "%g %s" % (-c, m) for m, c in self.stoichiometry.items() if c < 0
        )
        right = " + ".join(
            "%g %s" % (c, m) for m, c in self.stoichiometry.items() if c > 0
        )
        arrow = "<=>" if self.is_reversible else "-->"
        return "%s: %s %s %s" % (self.identifier, left, arrow, right)
