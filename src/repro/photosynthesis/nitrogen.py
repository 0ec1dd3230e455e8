"""Protein-nitrogen accounting for enzyme partitions.

Figure 2 of the paper defines the nitrogen concentration of a leaf partition
``x`` as ``sum_i x_i * MW_i * (catalytic number)_i^-1`` (up to the units of
``x``): an enzyme's activity divided by its turnover number gives the molar
amount of catalytic sites needed, and multiplying by the molecular weight
gives the protein mass, of which a fixed fraction is nitrogen.

The natural leaf of the paper carries ≈ 208 333 mg l⁻¹ of protein nitrogen in
these 23 enzymes; this module calibrates the unit conversion factor so the
natural activity vector reproduces exactly that number, and then reports any
partition in the paper's units (mg l⁻¹).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import DimensionError
from repro.photosynthesis.enzymes import ENZYMES, natural_activities

__all__ = [
    "NATURAL_NITROGEN",
    "nitrogen_cost_vector",
    "total_nitrogen",
    "total_nitrogen_batch",
    "nitrogen_by_enzyme",
    "nitrogen_fractions",
]

#: Total protein nitrogen of the natural leaf (mg l⁻¹), from the paper.
NATURAL_NITROGEN = 208333.0


def _raw_cost_vector() -> np.ndarray:
    """Unnormalized per-activity nitrogen costs, MW_i / kcat_i."""
    return np.array([enzyme.nitrogen_cost_per_activity for enzyme in ENZYMES])


#: Calibration factor mapping MW/kcat-weighted activity to mg l⁻¹ of nitrogen.
_UNIT_SCALE = NATURAL_NITROGEN / float(_raw_cost_vector() @ natural_activities())


def nitrogen_cost_vector() -> np.ndarray:
    """Per-enzyme nitrogen cost of one unit of activity (mg l⁻¹ per µmol m⁻² s⁻¹)."""
    return _raw_cost_vector() * _UNIT_SCALE


def total_nitrogen(activities: Sequence[float]) -> float:
    """Total protein nitrogen (mg l⁻¹) of an enzyme-activity vector."""
    activities = np.asarray(activities, dtype=float)
    if activities.shape != (len(ENZYMES),):
        raise DimensionError(
            "expected %d enzyme activities, got %r" % (len(ENZYMES), activities.shape)
        )
    return float(nitrogen_cost_vector() @ activities)


def total_nitrogen_batch(activities: np.ndarray) -> np.ndarray:
    """Total protein nitrogen of every row of an ``(n, 23)`` activity matrix.

    Each entry is bitwise identical to :func:`total_nitrogen` of the matching
    row: the cost vector is built once, but the dot product stays one DDOT
    per row, mapped over the rows without a Python loop body (a GEMV or
    ``einsum`` accumulates in a different order than the scalar DDOT and
    drifts in the last ulp, which would break the golden digests).
    """
    X = np.asarray(activities, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(ENZYMES):
        raise DimensionError(
            "expected an (n, %d) activity matrix, got %r" % (len(ENZYMES), X.shape)
        )
    return np.fromiter(map(nitrogen_cost_vector().dot, X), float, X.shape[0])


def nitrogen_by_enzyme(activities: Sequence[float]) -> dict[str, float]:
    """Per-enzyme nitrogen (mg l⁻¹) of an activity vector, keyed by enzyme name."""
    activities = np.asarray(activities, dtype=float)
    if activities.shape != (len(ENZYMES),):
        raise DimensionError(
            "expected %d enzyme activities, got %r" % (len(ENZYMES), activities.shape)
        )
    costs = nitrogen_cost_vector()
    return {
        enzyme.name: float(costs[i] * activities[i]) for i, enzyme in enumerate(ENZYMES)
    }


def nitrogen_fractions(activities: Sequence[float]) -> dict[str, float]:
    """Fraction of the partition's nitrogen held by each enzyme."""
    by_enzyme = nitrogen_by_enzyme(activities)
    total = sum(by_enzyme.values())
    if total <= 0:
        return {name: 0.0 for name in by_enzyme}
    return {name: value / total for name, value in by_enzyme.items()}
