"""Per-candidate archive fold: the specification of ``kernels.archive_prune``.

This is :func:`repro.moo.kernels.archive_prune` as it stood before the
chunked bitmask fold, copied verbatim with its two rows-versus-one-point
dominance helpers: each candidate is tested against the live rows with one
vectorized pass per dominance direction.
``tests/moo/test_archive_equivalence.py`` holds the bitmask fold to it on
every input whose violations are NaN-free.

On a NaN violation the two differ on purpose: :func:`_rows_dominate_point`
answers ``CV_rows < nan`` (false everywhere), so a feasible member fails to
dominate a candidate whose violation is NaN, whereas the kernel applies
:func:`repro.moo.kernels.constrained_domination_blocks` (a NaN violation is
infeasible, hence dominated by every feasible row).
"""

from __future__ import annotations

import numpy as np

from repro.moo.kernels import _as_objective_matrix, crowding_distances

__all__ = ["archive_prune"]


def _rows_dominate_point(
    F_rows: np.ndarray, CV_rows: np.ndarray, f: np.ndarray, cv: float
) -> np.ndarray:
    """Which rows constrained-dominate the single point ``(f, cv)``."""
    if cv == 0.0:
        feasible_rows = CV_rows == 0.0
        pareto = np.all(F_rows <= f, axis=1) & np.any(F_rows < f, axis=1)
        return feasible_rows & pareto
    # An infeasible point is dominated by every feasible row (CV 0 < cv) and
    # by every infeasible row with a smaller violation — one comparison.
    return CV_rows < cv


def _point_dominates_rows(
    f: np.ndarray, cv: float, F_rows: np.ndarray, CV_rows: np.ndarray
) -> np.ndarray:
    """Which rows are constrained-dominated by the single point ``(f, cv)``."""
    feasible_rows = CV_rows == 0.0
    if cv == 0.0:
        pareto = np.all(f <= F_rows, axis=1) & np.any(f < F_rows, axis=1)
        return ~feasible_rows | pareto
    return ~feasible_rows & (cv < CV_rows)


def archive_prune(
    F: np.ndarray,
    CV: np.ndarray,
    X: np.ndarray,
    n_members: int,
    capacity: int | None = None,
) -> tuple[list[int], int]:
    """Batched, feasibility-preferred, crowding-truncated archive prune.

    Rows ``0..n_members-1`` are the current archive members (assumed
    mutually non-dominated, in archive order); the remaining rows are
    candidates, folded in *in order* with the exact semantics of sequential
    insertion: a candidate dominated by a live row is rejected, live rows
    dominated by it are dropped, near-duplicates (``np.allclose`` on both
    objectives and decisions) are rejected after their dominance side
    effects, and when ``capacity`` is exceeded the most crowded live row is
    discarded after every insertion.

    Returns ``(kept, accepted)``: the surviving row indices in final archive
    order, and how many candidates entered (counting ones later evicted by
    truncation or a subsequent candidate).
    """
    F = _as_objective_matrix(F)
    CV = np.asarray(CV, dtype=float)
    X = np.asarray(X, dtype=float)
    n_total = F.shape[0]
    alive: list[int] = list(range(n_members))
    accepted = 0
    for c in range(n_members, n_total):
        if alive:
            live = np.asarray(alive, dtype=np.intp)
            F_live, CV_live = F[live], CV[live]
            if _rows_dominate_point(F_live, CV_live, F[c], CV[c]).any():
                continue
            survivors = live[~_point_dominates_rows(F[c], CV[c], F_live, CV_live)]
        else:
            survivors = np.empty(0, dtype=np.intp)
        if survivors.size:
            duplicate = np.isclose(F[survivors], F[c]).all(axis=1) & np.isclose(
                X[survivors], X[c]
            ).all(axis=1)
            if duplicate.any():
                alive = survivors.tolist()
                continue
        alive = survivors.tolist()
        alive.append(c)
        accepted += 1
        while capacity is not None and len(alive) > capacity:
            distances = crowding_distances(F[np.asarray(alive, dtype=np.intp)])
            finite = np.where(np.isfinite(distances), distances, np.inf)
            alive.pop(int(np.argmin(finite)))
    return alive, accepted
