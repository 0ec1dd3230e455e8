"""Vectorized, constraint-aware dominance kernels on objective matrices.

Every routine in this module operates on columnar data — an ``(n, m)``
matrix ``F`` of minimized objective vectors, an ``(n,)`` vector ``CV`` of
aggregate constraint violations (0 = feasible) and, for the archive kernel,
an ``(n, n_var)`` matrix ``X`` of decision vectors — instead of on
:class:`~repro.moo.individual.Individual` objects.  They are the hot path
of the whole MOO stack: NSGA-II ranking and survivor selection,
:class:`~repro.moo.archive.ParetoArchive`, MOEA/D neighbourhood replacement
and the front metrics all call these kernels on a population's
:attr:`~repro.moo.individual.Population.F` / ``CV`` / ``X`` matrices.

Dominance follows Deb's feasibility rules throughout (feasible beats
infeasible, smaller violation beats larger, Pareto dominance between
feasible solutions) and is always defined for *minimization*.

The kernels are drop-in equivalent to the naive loops they replaced —
bitwise-identical outputs, including tie-breaking order — which
``tests/moo/test_kernels.py`` asserts against the reference implementations
kept outside the package in ``tests/oracles/kernels.py`` (and
``tests/moo/test_archive_equivalence.py`` against the per-candidate archive
fold in ``tests/oracles/archive.py``), and ``benchmarks/bench_kernels.py``
measures (the non-dominated sort is two to three orders of magnitude faster
at ``n = 1000``; see ``BENCH_kernels.json`` and ``docs/performance.md``).

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


#: Cells per ``(rows, n_b)`` boolean temporary of :func:`_pareto_blocks`
#: (4 MB each, whatever the population size).
_BLOCK_CELLS = 2**22


def _pareto_blocks(F_a: np.ndarray, F_b: np.ndarray) -> np.ndarray:
    """Plain Pareto domination of rows of ``F_a`` over rows of ``F_b``.

    Works one objective column at a time on 2-D ``(rows, n_b)`` booleans
    (reducing a 3-D ``(rows, n_b, m)`` comparison over its short last axis
    costs several times more), chunked over rows of ``a`` so each boolean
    temporary stays within ``_BLOCK_CELLS`` cells.
    """
    n_a, m = F_a.shape
    n_b = F_b.shape[0]
    out = np.empty((n_a, n_b), dtype=bool)
    columns_b = np.ascontiguousarray(F_b.T)
    chunk = max(1, _BLOCK_CELLS // max(1, n_b))
    for start in range(0, n_a, chunk):
        block = F_a[start : start + chunk]
        no_worse = block[:, 0, None] <= columns_b[0]
        better = block[:, 0, None] < columns_b[0]
        for k in range(1, m):
            no_worse &= block[:, k, None] <= columns_b[k]
            better |= block[:, k, None] < columns_b[k]
        np.logical_and(no_worse, better, out=out[start : start + chunk])
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


def nondominated_sort(
    F: np.ndarray, CV: np.ndarray | None = None, cover: int | None = None
) -> list[list[int]]:
    """Deb's fast non-dominated sort on columnar data.

    Returns the fronts as lists of row indices, rank 0 first.  The ordering
    *within* each front reproduces the classic bookkeeping implementation
    exactly: front 0 is in ascending index order, and a member of a later
    front appears at the position where its last dominator (in current-front
    order) released it, ties broken by ascending index — so populations
    ordered by these fronts evolve bitwise-identically to the original
    pure-Python sort.

    With ``cover`` set, sorting stops after the front that brings the number
    of sorted rows to at least ``cover``: the result is the shortest prefix
    of the full sort's fronts holding ``cover`` rows (all of them when there
    are fewer rows).  Survivor selection needs no more than that.
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
        covered = 0
        while current.size:
            fronts.append(current.tolist())
            covered += current.size
            if cover is not None and covered >= cover:
                break
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


#: Candidates :func:`archive_prune` folds per block of dominance masks.
_ARCHIVE_CHUNK = 128


def _row_masks(block: np.ndarray) -> list[int]:
    """Each row of a boolean block as a Python int with bit ``k`` = column ``k``."""
    packed = np.packbits(block, axis=1, bitorder="little")
    width = packed.shape[1]
    raw = packed.tobytes()
    return [
        int.from_bytes(raw[start : start + width], "little")
        for start in range(0, len(raw), width)
    ]


def _set_bits(mask: int) -> np.ndarray:
    """Positions of the set bits of a non-negative ``mask``, ascending."""
    raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return np.flatnonzero(np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little"))


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
    discarded after every insertion.  Dominance is
    :func:`constrained_domination_blocks` (Deb's rules).

    Candidates are taken ``_ARCHIVE_CHUNK`` at a time.  The rows of a chunk
    are the live rows followed by its candidates, both ascending, so bit
    ``k`` of a Python-int mask stands for row ``k`` and bit order is
    archive order.  Three blocks over those rows — who dominates each
    candidate, whom each candidate dominates, and whose objectives are all
    close to it — are packed into one mask per candidate, and the
    sequential fold becomes bit arithmetic on the live set.  Decision
    vectors are compared only against live rows whose objectives are
    already close, one candidate at a time.

    Returns ``(kept, accepted)``: the surviving row indices in final archive
    order, and how many candidates entered (counting ones later evicted by
    truncation or a subsequent candidate, matching the return-value contract
    of per-individual insertion).
    """
    F = _as_objective_matrix(F)
    CV = np.asarray(CV, dtype=float)
    X = np.asarray(X, dtype=float)
    alive = np.arange(n_members)
    accepted = 0
    for start in range(n_members, F.shape[0], _ARCHIVE_CHUNK):
        chunk = np.arange(start, min(start + _ARCHIVE_CHUNK, F.shape[0]))
        rows = np.concatenate([alive, chunk])
        F_rows, CV_rows, F_new, CV_new = F[rows], CV[rows], F[chunk], CV[chunk]
        dominated_by = _row_masks(constrained_domination_blocks(F_rows, CV_rows, F_new, CV_new).T)
        dominates = _row_masks(constrained_domination_blocks(F_new, CV_new, F_rows, CV_rows))
        close = np.ones((chunk.size, rows.size), dtype=bool)
        for k in range(F.shape[1]):
            close &= np.isclose(F_rows[:, k], F_new[:, k, None])
        close_to = _row_masks(close)
        live = (1 << alive.size) - 1
        for j, c in enumerate(chunk.tolist()):
            if dominated_by[j] & live:
                continue
            live &= ~dominates[j]
            twins = close_to[j] & live
            if twins and np.isclose(X[rows[_set_bits(twins)]], X[c]).all(axis=1).any():
                continue
            live |= 1 << (alive.size + j)
            accepted += 1
            while capacity is not None and live.bit_count() > capacity:
                members = _set_bits(live)
                distances = crowding_distances(F_rows[members])
                finite = np.where(np.isfinite(distances), distances, np.inf)
                live &= ~(1 << int(members[np.argmin(finite)]))
        alive = rows[_set_bits(live)]
    return alive.tolist(), accepted
