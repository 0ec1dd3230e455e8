"""Kinetic reactions: stoichiometry plus a rate law plus a catalysing enzyme."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.exceptions import ConfigurationError
from tests.oracles.ode.rate_laws import RateLaw

__all__ = ["KineticReaction"]


@dataclass
class KineticReaction:
    """One reaction of a kinetic network.

    Attributes
    ----------
    identifier:
        Unique reaction identifier (e.g. ``"rubisco_carboxylation"``).
    stoichiometry:
        Mapping of metabolite identifier to signed stoichiometric coefficient
        (negative = consumed, positive = produced).
    rate_law:
        The :class:`~tests.oracles.ode.rate_laws.RateLaw` computing the flux.
    enzyme:
        Name of the catalysing enzyme; ``None`` for spontaneous/boundary
        steps.  The enzyme name is the key through which enzyme activities
        (the paper's 23-dimensional design vector) modulate the model.
    vmax:
        Baseline maximal velocity (mM s-1); the effective Vmax passed to the
        rate law is ``vmax * enzyme_scale`` where the scale comes from the
        design vector (1.0 for the natural leaf).
    name:
        Human-readable description.
    """

    identifier: str
    stoichiometry: dict[str, float]
    rate_law: RateLaw
    enzyme: str | None = None
    vmax: float = 1.0
    name: str = ""
    annotation: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.identifier:
            raise ConfigurationError("reaction identifier cannot be empty")
        if not self.stoichiometry:
            raise ConfigurationError(
                "reaction %s has an empty stoichiometry" % self.identifier
            )
        if self.vmax < 0:
            raise ConfigurationError(
                "reaction %s has a negative Vmax" % self.identifier
            )
        if not self.name:
            self.name = self.identifier

    # ------------------------------------------------------------------
    def flux(
        self, concentrations: Mapping[str, float], enzyme_scale: float = 1.0
    ) -> float:
        """Instantaneous flux given concentrations and an enzyme scale factor."""
        if enzyme_scale < 0:
            raise ConfigurationError("enzyme scale cannot be negative")
        return self.rate_law.rate(concentrations, self.vmax * enzyme_scale)

    def species(self) -> list[str]:
        """Every metabolite this reaction touches (stoichiometry + rate law)."""
        seen = dict.fromkeys(self.stoichiometry)
        for extra in self.rate_law.required_species():
            seen.setdefault(extra, None)
        return list(seen)

    def reactants(self) -> list[str]:
        """Metabolites consumed by the reaction."""
        return [m for m, coeff in self.stoichiometry.items() if coeff < 0]

    def products(self) -> list[str]:
        """Metabolites produced by the reaction."""
        return [m for m, coeff in self.stoichiometry.items() if coeff > 0]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        left = " + ".join(
            "%g %s" % (-coeff, met) for met, coeff in self.stoichiometry.items() if coeff < 0
        )
        right = " + ".join(
            "%g %s" % (coeff, met) for met, coeff in self.stoichiometry.items() if coeff > 0
        )
        return "%s: %s -> %s" % (self.identifier, left, right)
