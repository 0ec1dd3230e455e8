"""Metabolite species for constraint-based (stoichiometric) models."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Metabolite"]


@dataclass(frozen=True)
class Metabolite:
    """A species of a constraint-based metabolic model.

    Attributes
    ----------
    identifier:
        Unique identifier (e.g. ``"ac_c"`` for cytosolic acetate).
    name:
        Human-readable name.
    compartment:
        Compartment label; ``"c"`` cytosol, ``"e"`` extracellular by
        convention.
    formula:
        Optional chemical formula, used only for reporting.
    """

    identifier: str
    name: str = ""
    compartment: str = "c"
    formula: str = ""
    annotation: dict = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self) -> None:
        if not self.identifier:
            raise ValueError("metabolite identifier cannot be empty")
        if not self.name:
            object.__setattr__(self, "name", self.identifier)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.identifier
