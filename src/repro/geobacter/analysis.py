"""Analysis of the Geobacter electron-versus-biomass Pareto front.

Figure 4 of the paper reports five representative non-dominated solutions
(A–E) spanning the trade-off between electron production and biomass
production, together with the reduction of the steady-state constraint
violation relative to the initial guess.  This module extracts the same
artefacts from an optimization result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.moo.kernels import non_dominated_mask
from repro.moo.mining import equally_spaced_selection

__all__ = ["TradeOffPoint", "representative_points", "violation_reduction"]


@dataclass(frozen=True)
class TradeOffPoint:
    """One labelled point of the electron/biomass Pareto front (Fig. 4)."""

    label: str
    electron_production: float
    biomass_production: float
    steady_state_violation: float = 0.0


def representative_points(
    production_front: np.ndarray,
    violations: np.ndarray | None = None,
    count: int = 5,
) -> list[TradeOffPoint]:
    """Pick ``count`` labelled points (A, B, C, ...) along the front.

    Parameters
    ----------
    production_front:
        Matrix of (electron production, biomass production) in natural units
        (both maximized).
    violations:
        Optional per-point steady-state violations to attach to the labels.
    count:
        Number of representative points (the paper shows five).
    """
    front = np.asarray(production_front, dtype=float)
    if front.ndim != 2 or front.shape[1] != 2:
        raise ConfigurationError("production front must be an (n, 2) matrix")
    if count <= 0:
        raise ConfigurationError("count must be positive")
    # Keep only the non-dominated subset in maximization terms.
    minimized = -front
    keep = non_dominated_mask(minimized)
    kept_front = front[keep]
    kept_violations = violations[keep] if violations is not None else None
    picks = equally_spaced_selection(-kept_front, min(count, kept_front.shape[0]), objective=0)
    # Order the picks from the lowest to the highest electron production, the
    # ordering used by the paper's labels A..E.
    picks = sorted(picks, key=lambda i: kept_front[i, 0])
    points = []
    for position, index in enumerate(picks):
        label = chr(ord("A") + position)
        violation = float(kept_violations[index]) if kept_violations is not None else 0.0
        points.append(
            TradeOffPoint(
                label=label,
                electron_production=float(kept_front[index, 0]),
                biomass_production=float(kept_front[index, 1]),
                steady_state_violation=violation,
            )
        )
    return points


def violation_reduction(initial_violation: float, final_violation: float) -> float:
    """Constraint-violation reduction factor (the paper quotes ≈ 1/26.47).

    Returns ``final / initial``; a value of ``1/26`` means the optimizer
    reduced the steady-state violation 26-fold relative to the initial guess.
    """
    if initial_violation <= 0:
        raise ConfigurationError("initial violation must be positive")
    return final_violation / initial_violation
