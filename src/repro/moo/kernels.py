"""Vectorized, constraint-aware dominance kernels on objective matrices.

Every routine in this module operates on columnar data — an ``(n, m)``
matrix ``F`` of minimized objective vectors, an ``(n,)`` vector ``CV`` of
aggregate constraint violations (0 = feasible) and, for the archive kernel,
an ``(n, n_var)`` matrix ``X`` of decision vectors — instead of on
:class:`~repro.moo.individual.Individual` objects.  They are the hot path
of the whole MOO stack: NSGA-II ranking and survivor selection,
:class:`~repro.moo.archive.ParetoArchive`, MOEA/D neighbourhood replacement
and the front metrics all call these kernels on a population's
:attr:`~repro.moo.individual.Population.F` / ``CV`` / ``X`` views.

Dominance follows Deb's feasibility rules throughout (feasible beats
infeasible, smaller violation beats larger, Pareto dominance between
feasible solutions) and is always defined for *minimization*.

The kernels are drop-in equivalent to the naive loops they replaced —
bitwise-identical outputs, including tie-breaking order — which
``tests/moo/test_kernels.py`` asserts against the preserved reference
implementations in :mod:`repro.moo._reference`, and
``benchmarks/bench_kernels.py`` measures (the non-dominated sort is two to
three orders of magnitude faster at ``n = 1000``; see ``BENCH_kernels.json``
and ``docs/performance.md``).

Example
-------
Sort a small population and compute its crowding distances::

    >>> import numpy as np
    >>> from repro.moo.kernels import crowding_distances, nondominated_sort
    >>> F = np.array([[0.0, 2.0], [2.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    >>> nondominated_sort(F)
    [[0, 1, 2], [3]]
    >>> crowding_distances(F[:3])
    array([inf, inf,  2.])
"""

from __future__ import annotations

import numpy as np

from repro.obs.trace import get_tracer

__all__ = [
    "domination_matrix",
    "constrained_domination_blocks",
    "constrained_domination_matrix",
    "non_dominated_mask",
    "nondominated_sort",
    "crowding_distances",
    "crowding_truncation_order",
    "tournament_winner",
    "archive_prune",
]


def _as_objective_matrix(F: np.ndarray) -> np.ndarray:
    """Coerce input to a float ``(n, m)`` matrix (1-D becomes one column)."""
    F = np.asarray(F, dtype=float)
    if F.ndim == 1:
        F = F.reshape(-1, 1)
    return F


def _pareto_blocks(F_a: np.ndarray, F_b: np.ndarray) -> np.ndarray:
    """Plain Pareto domination of rows of ``F_a`` over rows of ``F_b``.

    Chunks the ``(n_a, n_b, m)`` broadcast over rows of ``a`` so the boolean
    temporaries stay bounded (~16 MB) regardless of population size.
    """
    n_a, m = F_a.shape
    n_b = F_b.shape[0]
    out = np.empty((n_a, n_b), dtype=bool)
    chunk = max(1, int(2**24 // max(1, n_b * m)))
    for start in range(0, n_a, chunk):
        stop = min(start + chunk, n_a)
        no_worse = np.all(F_a[start:stop, None, :] <= F_b[None, :, :], axis=2)
        better = np.any(F_a[start:stop, None, :] < F_b[None, :, :], axis=2)
        out[start:stop] = no_worse & better
    return out


def domination_matrix(F: np.ndarray) -> np.ndarray:
    """Pairwise Pareto-domination matrix of an ``(n, m)`` objective matrix.

    Returns a boolean ``(n, n)`` matrix ``D`` with ``D[i, j]`` true when row
    ``i`` dominates row ``j``: no worse in every objective and strictly
    better in at least one (all objectives minimized).  Constraints are
    ignored; use :func:`constrained_domination_matrix` for Deb's rules.
    """
    F = _as_objective_matrix(F)
    return _pareto_blocks(F, F)


def constrained_domination_blocks(
    F_a: np.ndarray, CV_a: np.ndarray, F_b: np.ndarray, CV_b: np.ndarray
) -> np.ndarray:
    """Constraint-aware domination of rows of ``a`` over rows of ``b``.

    Returns a boolean ``(n_a, n_b)`` block with entry ``[i, j]`` true when
    ``a``'s row ``i`` constrained-dominates ``b``'s row ``j`` under Deb's
    feasibility rules.  Computing rectangular blocks (archive members
    against a candidate batch, say) avoids the wasted square work of a full
    matrix when one side is known to be mutually non-dominated.
    """
    F_a = _as_objective_matrix(F_a)
    F_b = _as_objective_matrix(F_b)
    CV_a = np.asarray(CV_a, dtype=float)
    CV_b = np.asarray(CV_b, dtype=float)
    feasible_a = CV_a == 0.0
    feasible_b = CV_b == 0.0
    dominates = feasible_a[:, None] & ~feasible_b[None, :]
    dominates |= (feasible_a[:, None] & feasible_b[None, :]) & _pareto_blocks(F_a, F_b)
    dominates |= (~feasible_a[:, None] & ~feasible_b[None, :]) & (
        CV_a[:, None] < CV_b[None, :]
    )
    return dominates


def constrained_domination_matrix(F: np.ndarray, CV: np.ndarray | None = None) -> np.ndarray:
    """Square constraint-aware domination matrix of one population.

    ``CV=None`` treats every row as feasible, reducing to plain Pareto
    dominance.  The diagonal is always false.
    """
    F = _as_objective_matrix(F)
    if CV is None:
        CV = np.zeros(F.shape[0])
    return constrained_domination_blocks(F, CV, F, CV)


def non_dominated_mask(F: np.ndarray) -> np.ndarray:
    """Boolean mask of the Pareto non-dominated rows of ``F``.

    Unconstrained: rows dominated by no other row are true.  Indexing with
    the mask keeps the non-dominated rows in their original order.
    """
    F = _as_objective_matrix(F)
    if F.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    return ~domination_matrix(F).any(axis=0)


def nondominated_sort(F: np.ndarray, CV: np.ndarray | None = None) -> list[list[int]]:
    """Deb's fast non-dominated sort on columnar data.

    Returns the fronts as lists of row indices, rank 0 first.  The ordering
    *within* each front reproduces the classic bookkeeping implementation
    exactly: front 0 is in ascending index order, and a member of a later
    front appears at the position where its last dominator (in current-front
    order) released it, ties broken by ascending index — so populations
    ordered by these fronts evolve bitwise-identically to the original
    pure-Python sort.
    """
    F = _as_objective_matrix(F)
    n = F.shape[0]
    if n == 0:
        return []
    with get_tracer().span("kernels.nondominated_sort", rows=n) as span:
        CV = np.zeros(n) if CV is None else np.asarray(CV, dtype=float)
        dominates = constrained_domination_matrix(F, CV)
        counts = dominates.sum(axis=0).astype(np.int64)
        assigned = np.zeros(n, dtype=bool)
        current = np.flatnonzero(counts == 0)
        fronts: list[list[int]] = []
        while current.size:
            fronts.append(current.tolist())
            assigned[current] = True
            counts -= dominates[current].sum(axis=0)
            candidates = np.flatnonzero((counts == 0) & ~assigned)
            if candidates.size == 0:
                break
            # A candidate enters the next front at the moment its last
            # dominator (scanning the current front in order) releases it;
            # ties within one dominator's scan fall in ascending index order.
            released_by = dominates[np.ix_(current, candidates)]
            last_dominator = current.size - 1 - np.argmax(released_by[::-1, :], axis=0)
            current = candidates[np.lexsort((candidates, last_dominator))]
        span.set(fronts=len(fronts))
    return fronts


def crowding_distances(F: np.ndarray) -> np.ndarray:
    """Crowding distance of each row of an ``(n, m)`` objective matrix.

    Boundary rows of every objective receive an infinite distance; interior
    rows accumulate the span-normalized gap between their sorted
    neighbours.  Zero-range objectives (all rows equal in one column) and
    duplicated rows contribute nothing instead of dividing by zero, so the
    kernel is warning-free under ``-W error::RuntimeWarning``.
    """
    F = _as_objective_matrix(F)
    n, m = F.shape
    if n == 0:
        return np.empty(0)
    if n <= 2:
        return np.full(n, np.inf)
    order = np.argsort(F, axis=0, kind="stable")
    sorted_F = np.take_along_axis(F, order, axis=0)
    spans = sorted_F[-1] - sorted_F[0]
    safe_spans = np.where(spans > 0, spans, 1.0)
    contributions = (sorted_F[2:] - sorted_F[:-2]) / safe_spans
    distance = np.zeros(n)
    # Accumulate per column, in column order, to match the reference
    # summation order bit for bit (m is small, the work per column is
    # already vectorized).
    for k in range(m):
        if spans[k] > 0:
            distance[order[1:-1, k]] += contributions[:, k]
    distance[order[[0, -1], :].ravel()] = np.inf
    return distance


def crowding_truncation_order(crowding: np.ndarray) -> np.ndarray:
    """Indices sorting crowding distances descending, ties in input order.

    This is the truncation order of NSGA-II environmental selection: the
    least crowded (most spread-out) members come first, and the stable tie
    break reproduces Python's ``sorted(..., reverse=True)`` exactly.
    """
    crowding = np.asarray(crowding, dtype=float)
    return np.argsort(-crowding, kind="stable")


def tournament_winner(
    rank_a: float, crowding_a: float, rank_b: float, crowding_b: float
) -> int | None:
    """Scalar binary-tournament decision on (rank, crowding).

    Returns ``0`` when the first contestant wins, ``1`` when the second
    does, and ``None`` on a full tie (the caller breaks it with its own
    random draw).  Plain comparisons, no array construction: sequential
    selection loops call it once per tournament, so their random stream
    does not change.
    """
    if rank_a != rank_b:
        return 0 if rank_a < rank_b else 1
    if crowding_a != crowding_b:
        return 0 if crowding_a > crowding_b else 1
    return None


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

    Each candidate's dominance tests against the live set run as one
    vectorized pass per direction (and rejection short-circuits before the
    reverse pass), so the fold does O(alive x m) arithmetic per candidate
    with no quadratic precompute or matrix memory.

    Returns ``(kept, accepted)``: the surviving row indices in final archive
    order, and how many candidates entered (counting ones later evicted by
    truncation or a subsequent candidate, matching the return-value contract
    of per-individual insertion).
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
