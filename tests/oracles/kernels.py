"""Naive reference implementations of the dominance machinery.

These are the original pure-Python O(n^2) routines that
:mod:`repro.moo.kernels` replaces.  They are kept — verbatim in algorithm,
recast to operate on objective matrices and violation vectors instead of
:class:`~repro.moo.individual.Individual` objects — as the executable
specification of the vectorized kernels:

* ``tests/moo/test_kernels.py`` asserts element-for-element agreement
  between every kernel and its reference on seeded random populations;
* ``benchmarks/bench_kernels.py`` times the kernels against them and
  records the speedup trajectory in ``BENCH_kernels.json``.

The library never imports this module; it exists for verification and
measurement only.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "reference_dominates",
    "reference_constrained_dominates",
    "reference_non_dominated_front_indices",
    "reference_fast_non_dominated_sort",
    "reference_crowding_distance",
    "reference_archive_prune",
]


def reference_dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """Scalar Pareto dominance: ``a`` no worse everywhere, better somewhere."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(a <= b) and np.any(a < b))


def reference_constrained_dominates(
    f_a: np.ndarray, cv_a: float, f_b: np.ndarray, cv_b: float
) -> bool:
    """Deb's constraint-domination between two (objectives, violation) pairs."""
    feasible_a = cv_a == 0.0
    feasible_b = cv_b == 0.0
    if feasible_a and not feasible_b:
        return True
    if not feasible_a and feasible_b:
        return False
    if not feasible_a and not feasible_b:
        return cv_a < cv_b
    return reference_dominates(f_a, f_b)


def reference_non_dominated_front_indices(objectives: np.ndarray) -> list[int]:
    """O(n^2) scan for the non-dominated rows of an ``(n, m)`` matrix."""
    objectives = np.asarray(objectives, dtype=float)
    n = objectives.shape[0]
    indices: list[int] = []
    for i in range(n):
        dominated = False
        for j in range(n):
            if i != j and reference_dominates(objectives[j], objectives[i]):
                dominated = True
                break
        if not dominated:
            indices.append(i)
    return indices


def reference_fast_non_dominated_sort(
    objectives: np.ndarray, violations: np.ndarray | None = None
) -> list[list[int]]:
    """Deb's fast non-dominated sort, pairwise Python loops over rows."""
    objectives = np.asarray(objectives, dtype=float)
    n = objectives.shape[0]
    violations = (
        np.zeros(n) if violations is None else np.asarray(violations, dtype=float)
    )
    dominated_sets: list[list[int]] = [[] for _ in range(n)]
    domination_counts = [0] * n
    fronts: list[list[int]] = [[]]

    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if reference_constrained_dominates(
                objectives[i], violations[i], objectives[j], violations[j]
            ):
                dominated_sets[i].append(j)
            elif reference_constrained_dominates(
                objectives[j], violations[j], objectives[i], violations[i]
            ):
                domination_counts[i] += 1
        if domination_counts[i] == 0:
            fronts[0].append(i)

    current = 0
    while fronts[current]:
        next_front: list[int] = []
        for i in fronts[current]:
            for j in dominated_sets[i]:
                domination_counts[j] -= 1
                if domination_counts[j] == 0:
                    next_front.append(j)
        current += 1
        fronts.append(next_front)
    fronts.pop()  # the loop always appends one trailing empty front
    return fronts


def reference_crowding_distance(objectives: np.ndarray) -> np.ndarray:
    """Per-column loop crowding distance (the original implementation)."""
    objectives = np.asarray(objectives, dtype=float)
    n, m = objectives.shape if objectives.ndim == 2 else (objectives.shape[0], 1)
    if n == 0:
        return np.empty(0)
    if n <= 2:
        return np.full(n, np.inf)
    distance = np.zeros(n)
    for k in range(m):
        order = np.argsort(objectives[:, k], kind="mergesort")
        col = objectives[order, k]
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
        span = col[-1] - col[0]
        if span <= 0:
            continue
        contribution = (col[2:] - col[:-2]) / span
        distance[order[1:-1]] += contribution
    return distance


def reference_archive_prune(
    objectives: np.ndarray,
    violations: np.ndarray,
    decisions: np.ndarray,
    n_members: int,
    capacity: int | None = None,
) -> tuple[list[int], int]:
    """Sequential archive insertion, one candidate at a time.

    Rows ``0..n_members-1`` are the current archive (assumed mutually
    non-dominated, in archive order); the remaining rows are candidates
    inserted in order with the exact semantics of the original
    ``ParetoArchive.add`` loop: dominated candidates are rejected, members
    dominated by an accepted *or duplicate* candidate are dropped,
    near-duplicates (``np.allclose`` on objectives and decisions) are
    rejected, and a full archive is crowding-truncated after every
    insertion.  Returns the surviving row indices in archive order and the
    number of candidates that entered.
    """
    objectives = np.asarray(objectives, dtype=float)
    violations = np.asarray(violations, dtype=float)
    decisions = np.asarray(decisions, dtype=float)
    members: list[int] = list(range(n_members))
    accepted = 0
    for c in range(n_members, objectives.shape[0]):
        survivors: list[int] = []
        rejected = False
        for m_idx in members:
            if reference_constrained_dominates(
                objectives[m_idx], violations[m_idx], objectives[c], violations[c]
            ):
                rejected = True
                break
            if not reference_constrained_dominates(
                objectives[c], violations[c], objectives[m_idx], violations[m_idx]
            ):
                survivors.append(m_idx)
        if rejected:
            continue
        duplicate = False
        for m_idx in survivors:
            if np.allclose(objectives[m_idx], objectives[c]) and np.allclose(
                decisions[m_idx], decisions[c]
            ):
                duplicate = True
                break
        if duplicate:
            members = survivors
            continue
        survivors.append(c)
        members = survivors
        accepted += 1
        while capacity is not None and len(members) > capacity:
            distances = reference_crowding_distance(objectives[np.asarray(members)])
            finite = np.where(np.isfinite(distances), distances, np.inf)
            members.pop(int(np.argmin(finite)))
    return members, accepted
