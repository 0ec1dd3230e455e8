"""The chunked bitmask archive fold == the per-candidate fold, case for case.

:func:`repro.moo.kernels.archive_prune` folds candidates in chunks, as bit
arithmetic on packed dominance and closeness masks;
``tests/oracles/archive.py`` keeps the loop it replaced, which tests each
candidate against the live rows one at a time.  Over thousands of seeded
cases — archives already holding members, re-offered members, exact and
near duplicates, NaN/inf objectives, every capacity regime, objective
counts 1 to 5, decision widths 1 to 608 — both must return the same
``(kept, accepted)``.  Violations are NaN-free: on a NaN violation the two
differ on purpose (see the oracle's docstring and :class:`TestNaNViolation`).
"""

import warnings

import numpy as np
import pytest

from repro.moo import kernels
from repro.moo.archive import ParetoArchive
from repro.moo.individual import Individual
from tests.oracles import archive as oracle

N_BATCHES = 30
CASES_PER_BATCH = 100
CAPACITIES = (None, 1, 3, 8)
OBJECTIVES = (1, 2, 3, 5)
DECISIONS = (1, 30, 608)


def _truncation_errstate(F, capacity):
    """Silence numpy's "invalid value" where a fold crowding-truncates inf/NaN.

    Crowding distances of non-finite objectives are NaN, and the crowding
    kernel both folds truncate with warns on them; nothing else is silenced.
    """
    nan_crowding = capacity is not None and not np.isfinite(F).all()
    return np.errstate(invalid="ignore" if nan_crowding else "warn")


def _members_and_candidates(rng, n, m, n_var, capacity, prefix=None):
    """``(F, CV, X, n_members)``: an archive followed by the rows offered to it.

    The archive is built from the first ``prefix`` rows (a random count by
    default).
    """
    # A coarse grid makes exact ties and duplicate objective rows common.
    F = rng.integers(0, 6, size=(n, m)).astype(float)
    if rng.random() < 0.5:
        F += rng.normal(scale=0.3, size=(n, m))
    X = rng.uniform(size=(n, n_var))
    CV = np.where(rng.random(n) < 0.6, 0.0, rng.integers(1, 4, size=n).astype(float))
    if rng.random() < 0.3:
        CV[rng.random(n) < 0.2] = np.inf
    # Exact and near duplicates, objectives and decisions alike.
    for scale in (0.0, 1e-10):
        source = rng.integers(0, n, size=n // 4)
        target = rng.integers(0, n, size=n // 4)
        F[target] = F[source] + scale * rng.normal(size=(source.size, m))
        X[target] = X[source] + scale * rng.normal(size=(source.size, n_var))
        CV[target] = CV[source]
    if rng.random() < 0.2:
        F[rng.random((n, m)) < 0.05] = rng.choice([np.nan, np.inf, -np.inf])
    # The first rows become the archive: what the oracle keeps of them, in
    # order, so the members are mutually non-dominated as the kernel assumes.
    if prefix is None:
        prefix = int(rng.integers(1, n + 1))
    with _truncation_errstate(F, capacity):
        kept, _ = oracle.archive_prune(F[:prefix], CV[:prefix], X[:prefix], 0, capacity=capacity)
    offered = np.arange(prefix, n)
    if kept and rng.random() < 0.5:
        # Re-offer some members, as NSGA-II does with its surviving population.
        offered = np.concatenate([offered, rng.choice(kept, size=len(kept))])
        rng.shuffle(offered)
    order = np.concatenate([np.asarray(kept, dtype=np.intp), offered]).astype(np.intp)
    return F[order], CV[order], X[order], len(kept)


def _case(seed):
    rng = np.random.default_rng(seed)
    capacity = CAPACITIES[seed % len(CAPACITIES)]
    m = OBJECTIVES[(seed // len(CAPACITIES)) % len(OBJECTIVES)]
    n_var = DECISIONS[seed % len(DECISIONS)]
    n = int(rng.integers(1, 301)) if rng.random() < 0.2 else int(rng.integers(1, 61))
    return (*_members_and_candidates(rng, n, m, n_var, capacity), capacity)


def _assert_same_fold(F, CV, X, n_members, capacity):
    with warnings.catch_warnings(), _truncation_errstate(F, capacity):
        warnings.simplefilter("error", RuntimeWarning)
        expected = oracle.archive_prune(F, CV, X, n_members, capacity=capacity)
        got = kernels.archive_prune(F, CV, X, n_members, capacity=capacity)
    assert got == expected


@pytest.mark.parametrize("batch", range(N_BATCHES))
def test_bitmask_fold_matches_per_candidate_fold(batch):
    for seed in range(batch * CASES_PER_BATCH, (batch + 1) * CASES_PER_BATCH):
        F, CV, X, n_members, capacity = _case(seed)
        assert n_members > 0
        _assert_same_fold(F, CV, X, n_members, capacity)


@pytest.mark.parametrize("capacity", CAPACITIES)
def test_folds_agree_across_chunk_boundaries(capacity):
    # Several hundred candidates span more than one chunk of the kernel, so
    # members and earlier candidates carry over from one chunk to the next.
    rng = np.random.default_rng(2024)
    F, CV, X, n_members = _members_and_candidates(rng, 700, 2, 30, capacity, prefix=50)
    assert F.shape[0] - n_members > 2 * kernels._ARCHIVE_CHUNK
    _assert_same_fold(F, CV, X, n_members, capacity)


@pytest.mark.parametrize("member_first, accepted", [(True, 0), (False, 1)])
def test_closeness_tolerance_scales_with_the_candidate(member_first, accepted):
    # ``np.isclose(member, candidate)`` allows rtol * |candidate|: 1000 and
    # 1000.01000006 are close when the larger value is the candidate, not
    # when it is the member.  Neither row dominates the other.
    low, high = [1000.0, 1.0], [1000.01000006, 1.0 - 1e-9]
    F = np.array([low, high] if member_first else [high, low])
    CV = np.zeros(2)
    X = np.zeros((2, 3))
    expected = oracle.archive_prune(F, CV, X, 1)
    assert expected[1] == accepted
    assert kernels.archive_prune(F, CV, X, 1) == expected


def test_empty_and_member_only_inputs():
    F = np.array([[0.0, 1.0], [1.0, 0.0]])
    CV = np.zeros(2)
    X = np.array([[0.0], [1.0]])
    assert kernels.archive_prune(F[:0], CV[:0], X[:0], 0) == ([], 0)
    assert kernels.archive_prune(F, CV, X, 2) == ([0, 1], 0)


class TestNaNViolation:
    def test_feasible_member_dominates_a_nan_violation(self):
        """A NaN violation is infeasible, so a feasible member dominates it
        whatever the objectives (the per-candidate fold kept both)."""
        a, b = Individual(np.array([0.0])), Individual(np.array([1.0]))
        a.objectives, a.constraint_violation = np.array([0.0, 0.0]), 0.0
        b.objectives, b.constraint_violation = np.array([1.0, 1.0]), float("nan")
        archive = ParetoArchive()
        assert archive.add_population([a, b]) == 1
        np.testing.assert_array_equal(archive.F, [[0.0, 0.0]])
        assert not kernels.constrained_domination_matrix(archive.F, archive.CV).any()
        assert kernels.nondominated_sort(archive.F, archive.CV) == [[0]]
