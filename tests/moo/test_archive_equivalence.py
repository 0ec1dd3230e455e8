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


# ---------------------------------------------------------------------------
# ParetoArchive skips offered rows that repeat a live member
# ---------------------------------------------------------------------------
def _rows(F, CV, X):
    """One evaluated individual per row."""
    individuals = []
    for row in range(F.shape[0]):
        individual = Individual(X[row])
        individual.objectives = F[row]
        individual.constraint_violation = float(CV[row])
        individuals.append(individual)
    return individuals


def _tags(F, CV, X):
    """Each row's tag: the first row index holding the same X, F and CV bytes.

    Rows are told apart through their decisions (and F and CV); byte-equal
    rows share one tag, as nothing the archive keeps can tell them apart.
    """
    first: dict = {}
    keys = [(X[row].tobytes(), F[row].tobytes(), CV[row].tobytes()) for row in range(len(F))]
    return [first.setdefault(key, row) for row, key in enumerate(keys)], first


def _member_tags(archive, first):
    """The tags of the archive's members, in archive order."""
    X, F, CV = archive.X, archive.F, archive.CV
    return [first[(X[row].tobytes(), F[row].tobytes(), CV[row].tobytes())] for row in range(len(F))]


def _offer(F, CV, X, n_members, capacity, one_at_a_time=False):
    """Load the members into an archive, offer the rest; ``(archive, accepted)``."""
    rows = _rows(F, CV, X)
    tags, first = _tags(F, CV, X)
    archive = ParetoArchive(capacity=capacity)
    archive.add_population(rows[:n_members])
    assert _member_tags(archive, first) == tags[:n_members]
    if one_at_a_time:
        accepted = sum(archive.add(row) for row in rows[n_members:])
    else:
        accepted = archive.add_population(rows[n_members:])
    return archive, accepted


def _assert_archive_is_the_fold(F, CV, X, n_members, capacity, one_at_a_time=False):
    """The archive ends as the full fold leaves it: members, order, bytes, count.

    Where the violations are NaN-free, the per-candidate oracle agrees too.
    """
    with warnings.catch_warnings(), _truncation_errstate(F, capacity):
        warnings.simplefilter("error", RuntimeWarning)
        archive, accepted = _offer(F, CV, X, n_members, capacity, one_at_a_time)
        expected = kernels.archive_prune(F, CV, X, n_members, capacity=capacity)
        if not np.isnan(CV).any():
            assert oracle.archive_prune(F, CV, X, n_members, capacity=capacity) == expected
    kept, expected_accepted = expected
    tags, first = _tags(F, CV, X)
    assert _member_tags(archive, first) == [tags[row] for row in kept]
    assert accepted == expected_accepted
    assert archive.X.tobytes() == X[kept].tobytes()
    assert archive.F.tobytes() == F[kept].tobytes()
    assert archive.CV.tobytes() == CV[kept].tobytes()


def _repeat_case(seed):
    """``(F, CV, X, n_members, capacity)`` whose offered rows repeat members.

    The members come first; the offered rows mix fresh rows (exact and near
    duplicates of each other among them) with members offered again, some
    of them several times in the one batch.
    """
    rng = np.random.default_rng(seed)
    capacity = (None, None, 3, 8)[seed % 4]
    m = (1, 2, 3)[seed % 3]
    n_var = (1, 5, 23)[(seed // 3) % 3]
    n = int(rng.integers(2, 60))
    F = rng.integers(0, 5, size=(n, m)).astype(float)
    if rng.random() < 0.5:
        F += rng.normal(scale=0.3, size=(n, m))
    X = rng.uniform(size=(n, n_var))
    CV = np.where(rng.random(n) < 0.7, 0.0, rng.integers(1, 4, size=n).astype(float))
    for scale in (0.0, 1e-10):
        source = rng.integers(0, n, size=n // 4)
        target = rng.integers(0, n, size=n // 4)
        F[target] = F[source] + scale * rng.normal(size=(source.size, m))
        X[target] = X[source] + scale * rng.normal(size=(source.size, n_var))
        CV[target] = CV[source]
    if rng.random() < 0.25:
        F[rng.random((n, m)) < 0.05] = rng.choice([np.nan, np.inf, -np.inf])
    if rng.random() < 0.25:
        CV[rng.random(n) < 0.1] = rng.choice([np.nan, np.inf])
    prefix = int(rng.integers(1, n + 1))
    with _truncation_errstate(F, capacity):
        kept, _ = kernels.archive_prune(F[:prefix], CV[:prefix], X[:prefix], 0, capacity=capacity)
    repeats = rng.choice(kept, size=int(rng.integers(1, 2 * len(kept) + 1)))
    offered = np.concatenate([np.arange(prefix, n), repeats])
    rng.shuffle(offered)
    order = np.concatenate([kept, offered]).astype(np.intp)
    return F[order], CV[order], X[order], len(kept), capacity


def _record_folds(monkeypatch):
    """Record how many offered rows each ``archive_prune`` call folds."""
    folded = []
    prune = kernels.archive_prune

    def recording(F, CV, X, n_members, capacity=None):
        folded.append(F.shape[0] - n_members)
        return prune(F, CV, X, n_members, capacity=capacity)

    monkeypatch.setattr(kernels, "archive_prune", recording)
    return folded


class TestRepeatSkip:
    @pytest.mark.parametrize("batch", range(10))
    def test_folding_repeats_matches_the_full_fold(self, batch):
        for seed in range(batch * 50, (batch + 1) * 50):
            _assert_archive_is_the_fold(*_repeat_case(seed))

    @pytest.mark.parametrize("seed", range(40))
    def test_adding_rows_one_at_a_time_matches_the_full_fold(self, seed):
        F, CV, X, n_members, capacity = _repeat_case(seed)
        _assert_archive_is_the_fold(F, CV, X, n_members, capacity, one_at_a_time=True)

    def test_repeats_skip_the_fold_only_without_a_capacity(self, monkeypatch):
        folded = _record_folds(monkeypatch)
        F = np.array([[0.0, 2.0], [2.0, 0.0], [1.0, 1.0], [0.0, 2.0], [2.0, 0.0]])
        CV, X = np.zeros(5), np.arange(5.0)[:, None] % 3
        for capacity, offered in ((None, 1), (3, 3)):
            folded.clear()
            _assert_archive_is_the_fold(F, CV, X, 2, capacity)
            # Loading the members folds 2 rows; the fresh row [1, 1] always
            # takes the fold, the two repeats only with a capacity.
            assert folded[:2] == [2, offered]

    @pytest.mark.parametrize(
        "column, value",
        [
            (0, np.nan), (0, np.inf), (1, -np.inf),
            (2, np.nan), (2, np.inf),
            (3, np.nan), (3, np.inf),
        ],
    )
    def test_rows_with_a_non_finite_value_take_the_fold(self, column, value, monkeypatch):
        # A member and its exact repeat: F in columns 0-1, CV in 2, X in 3.
        rows = np.array([[0.0, 2.0, 0.0, 0.5], [0.0, 2.0, 0.0, 0.5]])
        rows[:, column] = value
        F, CV, X = rows[:, :2].copy(), rows[:, 2].copy(), rows[:, 3:].copy()
        folded = _record_folds(monkeypatch)
        _assert_archive_is_the_fold(F, CV, X, 1, None)
        assert folded[:2] == [1, 1]

    def test_signed_zero_twins(self, monkeypatch):
        # Row 2 holds -0.0 in F where member 0 holds 0.0: different bytes, so
        # it takes the fold, which rejects it as the member's twin.  Row 3
        # holds -0.0 in X alone, which equals member 1's 0.0, so it skips it.
        F = np.array([[0.0, 1.0], [1.0, 0.0], [-0.0, 1.0], [1.0, 0.0]])
        X = np.array([[0.5, 0.0], [0.25, 0.0], [0.5, 0.0], [0.25, -0.0]])
        CV = np.zeros(4)
        folded = _record_folds(monkeypatch)
        _assert_archive_is_the_fold(F, CV, X, 2, None)
        assert folded[:2] == [2, 1]
        _assert_archive_is_the_fold(F, CV, X, 2, 3)

    def test_a_member_evicted_by_a_rejected_near_duplicate(self):
        # Row 2 dominates member 1 and evicts it, then is rejected as a near
        # duplicate of member 0.  Row 3 repeats member 1; no live row
        # dominates it and it is not close to member 0 in X, so the fold
        # accepts it.  Skipping every repeat would lose it: a repeat skips
        # the fold only while no offered row dominates its member.
        F = np.array([[1.0000000001, 0.9999999998], [1.0, 1.0], [1.0, 0.9999999999], [1.0, 1.0]])
        X = np.array([[0.0], [1.0], [0.0], [1.0]])
        CV = np.zeros(4)
        assert oracle.archive_prune(F, CV, X, 2) == ([0, 3], 1)
        _assert_archive_is_the_fold(F, CV, X, 2, None)
        _assert_archive_is_the_fold(F, CV, X, 2, None, one_at_a_time=True)
