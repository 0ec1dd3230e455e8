"""Pareto-front quality metrics (Sec. 2.2 of the paper, Table 1).

Three indicators are defined by the paper and reproduced here:

* the **hypervolume indicator** ``Vp`` (Zitzler et al.),
* the **global Pareto coverage** ``Gp(Pi, PA) = |Pi ∩ PA| / |PA|`` where
  ``PA`` is the union front of all compared algorithms,
* the **relative Pareto coverage** ``Rp(Pi, PA) = |Pi ∩ PA| / |Pi|``.

Generational distance and its inverse (IGD) are provided too:
:class:`~repro.obs.telemetry.RunTelemetry` records IGD per generation when
given a ``reference_front``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, DimensionError
from repro.moo.kernels import non_dominated_mask

__all__ = [
    "hypervolume",
    "union_front",
    "global_pareto_coverage",
    "relative_pareto_coverage",
    "coverage_report",
    "generational_distance",
    "inverted_generational_distance",
    "normalize_fronts",
]


def _as_matrix(front: np.ndarray) -> np.ndarray:
    matrix = np.asarray(front, dtype=float)
    if matrix.ndim != 2 or matrix.size == 0:
        raise DimensionError("a front must be a non-empty (n, m) matrix")
    return matrix


def _row_chunk(n_other: int, m: int, itemsize: int = 8) -> int:
    """Rows per block so broadcast ``(chunk, n_other, m)`` temporaries stay ~16 MB.

    The same bounded-memory pattern as the kernels' dominance blocks: the
    pairwise metrics below fold their distance matrices in row blocks so a
    large front against a large reference never materializes a multi-GB
    3-D tensor.  Chunking is per-row-independent, so results are unchanged.
    """
    return max(1, int(2**24 // max(1, n_other * m * itemsize)))


# ---------------------------------------------------------------------------
# Hypervolume
# ---------------------------------------------------------------------------
def hypervolume(front: np.ndarray, reference: np.ndarray | None = None) -> float:
    """Hypervolume dominated by ``front`` with respect to ``reference``.

    All objectives are minimized; the reference point must be dominated by
    (i.e. worse than) every front member.  When ``reference`` is omitted it is
    set to the component-wise maximum of the front plus a 10 % margin, which
    is the convention the Table 1 benchmark uses after normalizing fronts.

    The implementation uses the WFG-style recursive slicing for any number of
    objectives, with fast paths for one and two objectives.
    """
    matrix = _as_matrix(front)
    n, m = matrix.shape
    if reference is None:
        span = matrix.max(axis=0) - matrix.min(axis=0)
        span = np.where(span <= 0, 1.0, span)
        reference = matrix.max(axis=0) + 0.1 * span
    reference = np.asarray(reference, dtype=float)
    if reference.shape != (m,):
        raise DimensionError("reference point must have one entry per objective")
    # Keep only points that strictly dominate the reference point.
    keep = np.all(matrix < reference, axis=1)
    matrix = matrix[keep]
    if matrix.shape[0] == 0:
        return 0.0
    matrix = matrix[non_dominated_mask(matrix)]
    if m == 1:
        return float(reference[0] - matrix.min())
    if m == 2:
        order = np.argsort(matrix[:, 0])
        pts = matrix[order]
        volume = 0.0
        previous_y = reference[1]
        for x, y in pts:
            volume += (reference[0] - x) * (previous_y - y)
            previous_y = y
        return float(volume)
    return _hypervolume_recursive(matrix, reference)


def _hypervolume_recursive(points: np.ndarray, reference: np.ndarray) -> float:
    """Recursive slicing hypervolume for three or more objectives.

    The points are sliced along the last objective: the slab between two
    consecutive last-objective values is dominated exactly by the points whose
    last objective is at or below the slab's lower face, and its (m-1)-D area
    is the hypervolume of those points projected onto the remaining
    objectives.
    """
    if points.shape[0] == 0:
        return 0.0
    if points.shape[1] == 2:
        return hypervolume(points, reference)
    order = np.argsort(points[:, -1])
    points = points[order]
    n = points.shape[0]
    volume = 0.0
    for i in range(n):
        z_low = points[i, -1]
        z_high = points[i + 1, -1] if i + 1 < n else reference[-1]
        depth = z_high - z_low
        if depth <= 0:
            continue
        slab = points[: i + 1, :-1]
        slab = slab[non_dominated_mask(slab)]
        volume += depth * _hypervolume_recursive(slab, reference[:-1])
    return float(volume)


# ---------------------------------------------------------------------------
# Coverage metrics of the paper
# ---------------------------------------------------------------------------
def union_front(*fronts: np.ndarray) -> np.ndarray:
    """Union Pareto front ``PA`` of several fronts (Sec. 2.2).

    The union of all points is deduplicated and filtered down to its
    non-dominated subset.
    """
    if not fronts:
        raise ConfigurationError("at least one front is required")
    stacked = np.vstack([_as_matrix(front) for front in fronts])
    stacked = np.unique(stacked, axis=0)
    return stacked[non_dominated_mask(stacked)]


def _membership_count(front: np.ndarray, union: np.ndarray, tol: float = 1e-9) -> int:
    """Number of points of ``front`` that appear in ``union`` (within ``tol``).

    One broadcast ``(n_front, n_union, m)`` comparison instead of a Python
    loop over front points.
    """
    front = _as_matrix(front)
    union = _as_matrix(union)
    n, m = front.shape
    chunk = _row_chunk(union.shape[0], m)
    count = 0
    for start in range(0, n, chunk):
        block = np.abs(union[None, :, :] - front[start : start + chunk, None, :])
        count += int(np.count_nonzero(np.all(block <= tol, axis=2).any(axis=1)))
    return count


def global_pareto_coverage(front: np.ndarray, union: np.ndarray) -> float:
    """``Gp(Pi, PA)``: fraction of the union front contributed by ``front``."""
    union = _as_matrix(union)
    return _membership_count(front, union) / union.shape[0]


def relative_pareto_coverage(front: np.ndarray, union: np.ndarray) -> float:
    """``Rp(Pi, PA)``: fraction of ``front`` that is globally Pareto optimal."""
    front = _as_matrix(front)
    return _membership_count(front, union) / front.shape[0]


def coverage_report(fronts: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """Compute the full Table 1 row for every named front.

    Returns ``{name: {"points": ..., "Rp": ..., "Gp": ..., "Vp": ...}}`` where
    the hypervolume is computed on fronts normalized to the union's bounding
    box so that the values are comparable across algorithms.
    """
    if not fronts:
        raise ConfigurationError("at least one front is required")
    union = union_front(*fronts.values())
    normalized = normalize_fronts(dict(fronts, __union__=union))
    union_normalized = normalized.pop("__union__")
    reference = np.ones(union_normalized.shape[1]) * 1.1
    report: dict[str, dict[str, float]] = {}
    for name, front in fronts.items():
        report[name] = {
            "points": float(_as_matrix(front).shape[0]),
            "Rp": relative_pareto_coverage(front, union),
            "Gp": global_pareto_coverage(front, union),
            "Vp": hypervolume(normalized[name], reference),
        }
    return report


def normalize_fronts(fronts: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Normalize every front to the joint ``[0, 1]`` box of all fronts."""
    stacked = np.vstack([_as_matrix(front) for front in fronts.values()])
    low = stacked.min(axis=0)
    high = stacked.max(axis=0)
    span = np.where(high - low <= 0, 1.0, high - low)
    return {
        name: (np.asarray(front, dtype=float) - low) / span
        for name, front in fronts.items()
    }


# ---------------------------------------------------------------------------
# Distance-based indicators
# ---------------------------------------------------------------------------
def generational_distance(front: np.ndarray, reference_front: np.ndarray) -> float:
    """Average distance from each front point to the reference front.

    The ``(n_front, n_reference)`` Euclidean distance matrix is computed as
    memory-bounded broadcast row blocks, each reduced to its per-row minimum
    before the next block is built.
    """
    front = _as_matrix(front)
    reference_front = _as_matrix(reference_front)
    n, m = front.shape
    chunk = _row_chunk(reference_front.shape[0], m)
    minima = np.empty(n)
    for start in range(0, n, chunk):
        deltas = reference_front[None, :, :] - front[start : start + chunk, None, :]
        minima[start : start + chunk] = np.sqrt(np.sum(deltas * deltas, axis=2)).min(axis=1)
    return float(np.mean(minima))


def inverted_generational_distance(
    front: np.ndarray, reference_front: np.ndarray
) -> float:
    """Average distance from each reference point to the obtained front."""
    return generational_distance(reference_front, front)
