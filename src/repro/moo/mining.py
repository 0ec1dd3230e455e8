"""Pareto-front mining and trade-off selection strategies (Sec. 2.2).

After an optimizer returns a (possibly large) set of non-dominated solutions,
the paper applies automatic screening strategies to pick the candidates that
are analysed further:

* the **Pareto Relative Minimum (PRM)** — the best value achieved by the
  algorithm on each objective, the empirical counterpart of the ideal point
  (:func:`ideal_point` of the obtained front);
* the **closest-to-ideal** solution — the non-dominated point with the
  smallest distance to the ideal (or PRM) point;
* the **shadow minima** — for each objective, the point achieving the lowest
  value of that objective;
* **equally spaced selection** — the paper picks "50 Pareto optimal points
  equally spaced on the Pareto-Front" before estimating their robustness
  (Fig. 3).

All functions operate on objective matrices (minimization convention) and
return indices into the supplied front so callers can recover decision
vectors, named selections, or both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError, DimensionError

__all__ = [
    "ideal_point",
    "closest_to_ideal",
    "shadow_minima",
    "equally_spaced_selection",
    "knee_point",
    "FrontSelection",
    "mine_front",
]


def _as_front(front: np.ndarray) -> np.ndarray:
    matrix = np.asarray(front, dtype=float)
    if matrix.ndim != 2 or matrix.size == 0:
        raise DimensionError("a front must be a non-empty (n, m) matrix")
    return matrix


def ideal_point(front: np.ndarray) -> np.ndarray:
    """Component-wise minimum of the front (the empirical ideal point)."""
    return _as_front(front).min(axis=0)


def closest_to_ideal(
    front: np.ndarray,
    ideal: np.ndarray | None = None,
    normalize: bool = True,
    metric: str = "euclidean",
) -> int:
    """Index of the non-dominated solution closest to the ideal point.

    Parameters
    ----------
    front:
        Objective matrix of the non-dominated set.
    ideal:
        Reference point; defaults to the PRM of the front itself.
    normalize:
        When ``True`` (default) objectives are scaled to ``[0, 1]`` using the
        front's own bounds before measuring distances, so that objectives with
        different magnitudes (CO2 uptake in µmol vs nitrogen in mg) contribute
        evenly.
    metric:
        ``"euclidean"`` (default) or ``"chebyshev"``.
    """
    matrix = _as_front(front)
    reference = ideal_point(matrix) if ideal is None else np.asarray(ideal, float)
    if reference.shape != (matrix.shape[1],):
        raise DimensionError("ideal point must have one entry per objective")
    if normalize:
        low = matrix.min(axis=0)
        span = matrix.max(axis=0) - low
        span = np.where(span <= 0, 1.0, span)
        scaled = (matrix - low) / span
        scaled_reference = (reference - low) / span
    else:
        scaled = matrix
        scaled_reference = reference
    deltas = scaled - scaled_reference
    if metric == "euclidean":
        distances = np.linalg.norm(deltas, axis=1)
    elif metric == "chebyshev":
        distances = np.max(np.abs(deltas), axis=1)
    else:
        raise ConfigurationError("metric must be 'euclidean' or 'chebyshev'")
    return int(np.argmin(distances))


def shadow_minima(front: np.ndarray) -> list[int]:
    """Indices of the shadow minima: the best point for each objective."""
    matrix = _as_front(front)
    return [int(np.argmin(matrix[:, k])) for k in range(matrix.shape[1])]


def equally_spaced_selection(front: np.ndarray, count: int, objective: int = 0) -> list[int]:
    """Pick ``count`` front points approximately equally spaced along one objective.

    The front is sorted by ``objective`` and points are chosen at equally
    spaced positions of the cumulative arc length along the sorted front,
    which reproduces the paper's "50 Pareto optimal points equally spaced on
    the Pareto-Front" sampling for the robustness surface of Fig. 3.
    """
    matrix = _as_front(front)
    n = matrix.shape[0]
    if count <= 0:
        raise ConfigurationError("count must be positive")
    if objective < 0 or objective >= matrix.shape[1]:
        raise ConfigurationError("objective index out of range")
    if count >= n:
        return list(range(n))
    order = np.argsort(matrix[:, objective])
    sorted_front = matrix[order]
    # Arc length along the (normalized) sorted front.
    low = sorted_front.min(axis=0)
    span = sorted_front.max(axis=0) - low
    span = np.where(span <= 0, 1.0, span)
    unit = (sorted_front - low) / span
    steps = np.linalg.norm(np.diff(unit, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(steps)])
    total = arc[-1] if arc[-1] > 0 else 1.0
    targets = np.linspace(0.0, total, count)
    chosen: list[int] = []
    for target in targets:
        position = int(np.argmin(np.abs(arc - target)))
        index = int(order[position])
        if index not in chosen:
            chosen.append(index)
    # Top up with unused points if duplicates collapsed the selection.
    cursor = 0
    while len(chosen) < count and cursor < n:
        index = int(order[cursor])
        if index not in chosen:
            chosen.append(index)
        cursor += 1
    return chosen


def knee_point(front: np.ndarray) -> int:
    """Index of the knee: the point farthest below the extreme-to-extreme line.

    Only defined for bi-objective fronts; a useful complement to the paper's
    selection criteria when reporting candidate designs.
    """
    matrix = _as_front(front)
    if matrix.shape[1] != 2:
        raise ConfigurationError("knee_point is defined for bi-objective fronts")
    low = matrix.min(axis=0)
    span = matrix.max(axis=0) - low
    span = np.where(span <= 0, 1.0, span)
    unit = (matrix - low) / span
    a = unit[np.argmin(unit[:, 0])]
    b = unit[np.argmin(unit[:, 1])]
    direction = b - a
    norm = np.linalg.norm(direction)
    if norm == 0:
        return 0
    # Signed distance of every point from the line through the two extremes
    # (2-D cross product written out explicitly).
    relative = unit - a
    distances = (direction[0] * relative[:, 1] - direction[1] * relative[:, 0]) / norm
    return int(np.argmin(distances))


@dataclass
class FrontSelection:
    """Named selection of trade-off points mined from a Pareto front.

    Attributes map selection names (``closest_to_ideal``, ``min_f0``, ...) to
    indices into the original front matrix.
    """

    front: np.ndarray
    selections: dict[str, int]

    def objectives(self, name: str) -> np.ndarray:
        """Objective vector of a named selection."""
        return self.front[self.selections[name]]

    def names(self) -> list[str]:
        """All selection names."""
        return list(self.selections)


def mine_front(front: np.ndarray, objective_names: list[str] | None = None) -> FrontSelection:
    """Apply every selection criterion of Sec. 2.2 to a front.

    Returns a :class:`FrontSelection` containing the closest-to-ideal point
    and the shadow minimum of each objective (named ``min_<objective>``), plus
    the knee point for bi-objective fronts.
    """
    matrix = _as_front(front)
    names = objective_names or ["f%d" % k for k in range(matrix.shape[1])]
    if len(names) != matrix.shape[1]:
        raise DimensionError("objective_names must match the number of objectives")
    selections = {"closest_to_ideal": closest_to_ideal(matrix)}
    for k, index in enumerate(shadow_minima(matrix)):
        selections["min_%s" % names[k]] = index
    if matrix.shape[1] == 2:
        selections["knee"] = knee_point(matrix)
    return FrontSelection(front=matrix, selections=selections)
