"""Enzyme control analysis of the CO2 uptake rate.

The paper's discussion of the photosynthesis results centres on *which*
enzymes control the uptake: "Rubisco, Sedoheptulosebisphosphatase (SBPase),
ADP-Glc pyrophosphorylase (ADPGPP) and Fru-1,6-bisphosphate (FBP) aldolase are
the most influential enzymes in the carbon metabolism model where CO2 Uptake
maximization is concerned".  This module quantifies that statement for any
design through (scaled) flux control coefficients,

    C_i = (d A / A) / (d x_i / x_i),

estimated by central finite differences of the uptake model, and a ranking
helper.  ``tests/photosynthesis/test_control.py`` holds the fast model to the
paper's statement with them.  The module lives outside the installed
package; it exists for verification only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError, DimensionError
from repro.photosynthesis.enzymes import ENZYME_NAMES, ENZYMES, natural_activities
from repro.photosynthesis.steady_state import EnzymeLimitedModel

__all__ = ["ControlCoefficient", "control_coefficients", "most_influential_enzymes"]


@dataclass(frozen=True)
class ControlCoefficient:
    """Scaled control coefficient of one enzyme on the CO2 uptake."""

    enzyme: str
    coefficient: float

    @property
    def is_controlling(self) -> bool:
        """``True`` when the enzyme has a non-negligible influence (> 1 %)."""
        return abs(self.coefficient) > 0.01


def control_coefficients(
    model: EnzymeLimitedModel,
    activities: np.ndarray | None = None,
    relative_step: float = 0.05,
) -> list[ControlCoefficient]:
    """Scaled control coefficients of every enzyme at a given design.

    Parameters
    ----------
    model:
        The uptake evaluator (any object with ``co2_uptake``).
    activities:
        Design at which the coefficients are evaluated; the natural leaf when
        omitted.
    relative_step:
        Relative finite-difference step applied to each enzyme activity.
    """
    if not 0.0 < relative_step < 0.5:
        raise ConfigurationError("relative_step must be in (0, 0.5)")
    x = np.asarray(
        activities if activities is not None else natural_activities(), dtype=float
    )
    if x.shape != (len(ENZYMES),):
        raise DimensionError("expected %d enzyme activities" % len(ENZYMES))
    nominal = model.co2_uptake(x)
    scale = abs(nominal) if abs(nominal) > 1e-9 else 1.0
    coefficients = []
    for index, name in enumerate(ENZYME_NAMES):
        up = x.copy()
        down = x.copy()
        up[index] *= 1.0 + relative_step
        down[index] *= 1.0 - relative_step
        delta = model.co2_uptake(up) - model.co2_uptake(down)
        coefficient = (delta / scale) / (2.0 * relative_step)
        coefficients.append(ControlCoefficient(enzyme=name, coefficient=float(coefficient)))
    return coefficients


def most_influential_enzymes(
    model: EnzymeLimitedModel,
    activities: np.ndarray | None = None,
    count: int = 4,
) -> list[str]:
    """Names of the ``count`` enzymes with the largest |control coefficient|."""
    if count <= 0:
        raise ConfigurationError("count must be positive")
    coefficients = control_coefficients(model, activities)
    ranked = sorted(coefficients, key=lambda c: abs(c.coefficient), reverse=True)
    return [entry.enzyme for entry in ranked[:count]]
