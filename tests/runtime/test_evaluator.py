"""Tests for the evaluation engines (serial, pooled, cached) and the ledger."""

import os

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.moo.testproblems import ZDT1, FonsecaFleming, Schaffer
from repro.problems import BatchEvaluation, FunctionalProblem, Problem
from repro.runtime import (
    CachedEvaluator,
    EvaluationLedger,
    PersistentCachedEvaluator,
    ProcessPoolEvaluator,
    SerialEvaluator,
    build_evaluator,
)
from tests.oracles.budget import BudgetCounting


class WorkerHostileProblem(Problem):
    """Evaluates fine in the parent process but raises in any other process.

    Used to exercise the pool's graceful degradation when a worker fails.
    """

    def __init__(self):
        super().__init__(n_var=2, n_obj=2, lower_bounds=[0.0, 0.0], upper_bounds=[1.0, 1.0])
        self.parent_pid = os.getpid()

    def _evaluate_matrix(self, X):
        if os.getpid() != self.parent_pid:
            raise RuntimeError("synthetic worker failure")
        return BatchEvaluation(F=X.copy())


def _matrix(problem, n, seed=0):
    rng = np.random.default_rng(seed)
    return np.vstack([problem.random_solution(rng) for _ in range(n)])


class TestMatrixApi:
    def test_row_loop_matches_matrix_path(self):
        problem = FunctionalProblem(
            n_var=2,
            objective_functions=[lambda x: x[0] ** 2, lambda x: (x[0] - 2) ** 2 + x[1]],
            lower_bounds=[-5, -5],
            upper_bounds=[5, 5],
        )
        X = _matrix(problem, 7)
        batch = problem.evaluate_matrix(X)
        rows = np.vstack([problem.evaluate_matrix(row[None, :]).F for row in X])
        assert np.array_equal(batch.F, rows)

    @pytest.mark.parametrize("problem", [Schaffer(), ZDT1(n_var=8), FonsecaFleming()])
    def test_vectorized_overrides_are_bitwise_identical(self, problem):
        X = _matrix(problem, 16)
        batch = problem.evaluate_matrix(X)
        rows = np.vstack([problem.evaluate_matrix(row[None, :]).F for row in X])
        assert np.array_equal(batch.F, rows)

    @pytest.mark.parametrize("problem", [Schaffer(), ZDT1(n_var=8)])
    def test_empty_batches(self, problem):
        batch = problem.evaluate_matrix(np.empty((0, problem.n_var)))
        assert len(batch) == 0
        assert batch.F.shape == (0, problem.n_obj)

    def test_counting_problem_counts_rows(self):
        counting = BudgetCounting(Schaffer())
        counting.evaluate_matrix(_matrix(counting, 5))
        assert counting.evaluations == 5


class TestSerialEvaluator:
    def test_matches_problem_matrix_and_records_ledger(self):
        ledger = EvaluationLedger()
        evaluator = SerialEvaluator(ledger=ledger)
        problem = ZDT1(n_var=6)
        X = _matrix(problem, 9)
        batch = evaluator.evaluate_matrix(problem, X)
        assert np.array_equal(batch.F, problem.evaluate_matrix(X).F)
        assert ledger.total_evaluations == 9


class TestProcessPoolEvaluator:
    def test_pool_is_bitwise_identical_to_serial(self):
        problem = ZDT1(n_var=6)
        X = _matrix(problem, 25)
        serial = SerialEvaluator().evaluate_matrix(problem, X)
        with ProcessPoolEvaluator(n_workers=2) as pool:
            pooled = pool.evaluate_matrix(problem, X)
        assert np.array_equal(pooled.F, serial.F)
        assert np.array_equal(pooled.G, serial.G)

    def test_unpicklable_problem_falls_back_to_serial(self):
        # Lambdas cannot be pickled, so the pool must degrade gracefully.
        problem = FunctionalProblem(
            n_var=1,
            objective_functions=[lambda x: x[0] ** 2, lambda x: (x[0] - 1) ** 2],
            lower_bounds=[-1.0],
            upper_bounds=[1.0],
        )
        X = _matrix(problem, 6)
        with ProcessPoolEvaluator(n_workers=2) as pool:
            pooled = pool.evaluate_matrix(problem, X)
        assert np.array_equal(pooled.F, problem.evaluate_matrix(X).F)

    def test_worker_failure_falls_back_to_serial(self):
        problem = WorkerHostileProblem()
        X = _matrix(problem, 8)
        with ProcessPoolEvaluator(n_workers=2) as pool:
            pooled = pool.evaluate_matrix(problem, X)
            assert pool.fallbacks == 1
        assert np.array_equal(pooled.F, problem.evaluate_matrix(X).F)

    def test_empty_batch(self):
        with ProcessPoolEvaluator(n_workers=2) as pool:
            batch = pool.evaluate_matrix(ZDT1(n_var=4), np.empty((0, 4)))
        assert len(batch) == 0

    def test_rejects_bad_configuration(self):
        with pytest.raises(ConfigurationError):
            ProcessPoolEvaluator(n_workers=0)

    def test_pickles_without_its_pool(self):
        import pickle

        problem = ZDT1(n_var=4)
        with ProcessPoolEvaluator(n_workers=2) as pool:
            pool.evaluate_matrix(problem, _matrix(problem, 4))
            clone = pickle.loads(pickle.dumps(pool))
        batch = clone.evaluate_matrix(problem, _matrix(problem, 4))
        assert len(batch) == 4
        clone.close()


class TestCachedEvaluator:
    def test_hit_and_miss_accounting(self):
        ledger = EvaluationLedger()
        counting = BudgetCounting(ZDT1(n_var=4))
        cached = CachedEvaluator(inner=SerialEvaluator(ledger=ledger), ledger=ledger)
        X = _matrix(counting, 4)
        first = cached.evaluate_matrix(counting, X)
        again = cached.evaluate_matrix(counting, X)
        assert counting.evaluations == 4  # second pass fully memoized
        stats = cached.stats()
        assert stats["hits"] == 4 and stats["misses"] == 4
        assert stats["hit_rate"] == pytest.approx(0.5)
        assert ledger.total_cache_hits == 4
        assert ledger.total_evaluations == 4
        assert np.array_equal(first.F, again.F)

    def test_duplicates_inside_one_batch_evaluate_once(self):
        counting = BudgetCounting(Schaffer())
        cached = CachedEvaluator()
        X = np.array([[0.5], [0.5], [0.5]])
        batch = cached.evaluate_matrix(counting, X)
        assert counting.evaluations == 1
        assert cached.ledger.total_cache_hits == 2
        assert cached.ledger.total_cache_misses == 1
        assert np.array_equal(batch.F[0], batch.F[1])
        assert np.array_equal(batch.F[0], batch.F[2])

    def test_quantization_merges_floating_point_dust(self):
        counting = BudgetCounting(Schaffer())
        cached = CachedEvaluator(decimals=6)
        cached.evaluate_matrix(counting, np.array([[0.5]]))
        cached.evaluate_matrix(counting, np.array([[0.5 + 1e-9]]))
        assert counting.evaluations == 1 and cached.ledger.total_cache_hits == 1

    def test_results_are_isolated_copies(self):
        cached = CachedEvaluator()
        problem = Schaffer()
        first = cached.evaluate_matrix(problem, np.array([[0.25]]))
        first.F[:] = -1.0  # corrupting the caller's copy...
        second = cached.evaluate_matrix(problem, np.array([[0.25]]))
        assert np.all(second.F >= 0.0)  # ...must not poison the cache

    def test_eviction_respects_max_entries(self):
        cached = CachedEvaluator(max_entries=2)
        problem = Schaffer()
        for value in (0.1, 0.2, 0.3):
            cached.evaluate_matrix(problem, np.array([[value]]))
        assert cached.stats()["entries"] == 2

    def test_keys_are_scoped_by_problem_identity(self):
        # Regression: one evaluator serving two different problems must never
        # answer one problem's lookup with the other's objectives (the cache
        # used to key on row bytes alone and clear on instance switch, which
        # both served stale rows for `is`-identical switches and lost all
        # entries across checkpoint restores).
        from repro.problems.registry import build_problem

        cached = CachedEvaluator()
        zdt1, zdt2 = build_problem("zdt1?n_var=4"), build_problem("zdt2?n_var=4")
        X = np.full((2, 4), 0.5)
        first = cached.evaluate_matrix(zdt1, X)
        other = cached.evaluate_matrix(zdt2, X)
        assert not np.array_equal(first.F, other.F)
        assert np.array_equal(first.F, zdt1.evaluate_matrix(X).F)
        assert np.array_equal(other.F, zdt2.evaluate_matrix(X).F)

    def test_entries_survive_switching_between_problems(self):
        # Content-scoped keys mean coming *back* to a problem hits the cache
        # instead of finding it cleared.
        from repro.problems.registry import build_problem

        cached = CachedEvaluator()
        zdt1, zdt2 = build_problem("zdt1?n_var=4"), build_problem("zdt2?n_var=4")
        X = np.full((1, 4), 0.5)
        cached.evaluate_matrix(zdt1, X)
        cached.evaluate_matrix(zdt2, X)
        hits = cached.ledger.total_cache_hits
        cached.evaluate_matrix(zdt1, X)
        assert cached.ledger.total_cache_hits == hits + 1

    def test_equal_content_problems_share_entries(self):
        # Two instances describing the same task (same registry spec) share
        # entries — this is what keeps the cache warm across a checkpoint
        # restore, where the problem is re-built from its spec.
        from repro.problems.registry import build_problem

        cached = CachedEvaluator()
        X = np.array([[0.5, 0.5]])
        cached.evaluate_matrix(build_problem("zdt1?n_var=2"), X)
        counting = BudgetCounting(build_problem("zdt1?n_var=2"))
        cached.evaluate_matrix(counting, X)
        assert counting.evaluations == 0  # served from the sibling's entry

    def test_constrained_batches_keep_their_violation_columns(self):
        from repro.moo.testproblems import ConstrainedBNH

        problem = ConstrainedBNH()
        cached = CachedEvaluator()
        X = _matrix(problem, 5)
        first = cached.evaluate_matrix(problem, X)
        again = cached.evaluate_matrix(problem, X)
        assert first.n_con == 2
        assert np.array_equal(first.G, again.G)
        assert np.array_equal(first.G, problem.evaluate_matrix(X).G)


class TestCountedOnce:
    """The ledger is the one evaluation counter, written once per layer and batch."""

    @pytest.mark.parametrize(
        "make, caching",
        [
            (lambda directory: SerialEvaluator(), False),
            (lambda directory: ProcessPoolEvaluator(n_workers=2), False),
            (lambda directory: CachedEvaluator(), True),
            (lambda directory: PersistentCachedEvaluator(directory), True),
        ],
        ids=["serial", "pool", "cached", "persistent"],
    )
    def test_each_evaluation_is_counted_once(self, make, caching, tmp_path, monkeypatch):
        records = []
        record = EvaluationLedger.record

        def counted_record(ledger, **counters):
            records.append(counters)
            record(ledger, **counters)

        monkeypatch.setattr(EvaluationLedger, "record", counted_record)
        counting = BudgetCounting(Schaffer())
        X = np.array([[0.5], [1.5], [0.5]])  # one duplicate row
        with make(tmp_path) as evaluator:
            evaluator.evaluate_matrix(counting, X)
        ledger = evaluator.ledger
        if isinstance(evaluator, ProcessPoolEvaluator):
            # Workers count their own problem copies; count in-process too.
            counting.evaluate_matrix(X)
        assert ledger.total_evaluations == counting.evaluations
        if caching:
            assert ledger.total_cache_hits + ledger.total_cache_misses == len(X)
            assert len(records) == 2  # the cache layer and its inner evaluator
        else:
            assert ledger.total_evaluations == len(X)
            assert len(records) == 1


def _counters(ledger):
    """The ledger's counters without its wall clock."""
    counters = ledger.as_dict()
    for phase in counters["phases"].values():
        del phase["wall_clock"]
    return counters


class TestEvaluateObjective:
    """The one-objective path: the full path's column, and the full path's ledger."""

    EVALUATORS = {
        "serial": lambda: SerialEvaluator(),
        "pool": lambda: ProcessPoolEvaluator(n_workers=2),
        "cached": lambda: CachedEvaluator(),
    }

    @staticmethod
    def _photosynthesis():
        from repro.photosynthesis.problem import PhotosynthesisProblem

        return PhotosynthesisProblem()

    @pytest.mark.parametrize("kind", sorted(EVALUATORS))
    @pytest.mark.parametrize("name", ["co2_uptake", "nitrogen"])
    def test_values_and_ledger_match_the_full_path(self, kind, name):
        problem = self._photosynthesis()
        X = _matrix(problem, 30, seed=1)
        X = np.vstack([X, X[:5]])  # duplicates: cache hits on the cached path
        with self.EVALUATORS[kind]() as alone, self.EVALUATORS[kind]() as full:
            values = alone.evaluate_objective(problem, name, X)
            batch = full.evaluate_matrix(problem, X)
            column = problem.objective_names.index(name)
            expected = problem.reported_objectives(batch.F)[:, column]
            assert values.tobytes() == expected.tobytes()
            assert values.tobytes() == problem.objective_matrix(name, X).tobytes()
            assert _counters(alone.ledger) == _counters(full.ledger)
            if kind == "pool":
                assert alone.fallbacks == full.fallbacks == 0

    def test_default_keeps_one_column_for_any_problem(self):
        problem = ZDT1(n_var=6)
        X = _matrix(problem, 7)
        for make in self.EVALUATORS.values():
            with make() as evaluator:
                values = evaluator.evaluate_objective(problem, "f2", X)
            assert values.tobytes() == problem.evaluate_matrix(X).F[:, 1].tobytes()

    @pytest.mark.parametrize("kind", sorted(EVALUATORS))
    def test_unknown_objective_is_refused_before_evaluating(self, kind):
        problem = ZDT1(n_var=4)
        with self.EVALUATORS[kind]() as evaluator:
            with pytest.raises(ConfigurationError, match="f9"):
                evaluator.evaluate_objective(problem, "f9", _matrix(problem, 3))
        assert evaluator.ledger.total_evaluations == 0
        assert getattr(evaluator, "fallbacks", 0) == 0

    @pytest.mark.parametrize("kind", sorted(EVALUATORS))
    def test_empty_matrix(self, kind):
        problem = self._photosynthesis()
        empty = np.empty((0, problem.n_var))
        with self.EVALUATORS[kind]() as alone, self.EVALUATORS[kind]() as full:
            assert alone.evaluate_objective(problem, "co2_uptake", empty).shape == (0,)
            full.evaluate_matrix(problem, empty)
        assert _counters(alone.ledger) == _counters(full.ledger)

    def test_pool_worker_failure_falls_back_to_serial(self):
        problem = WorkerHostileProblem()
        X = _matrix(problem, 8)
        with ProcessPoolEvaluator(n_workers=2) as pool:
            values = pool.evaluate_objective(problem, "f1", X)
            assert pool.fallbacks == 1
        assert values.tobytes() == X[:, 1].tobytes()
        assert pool.ledger.total_evaluations == 8


class TestBuildEvaluator:
    def test_serial_by_default(self):
        evaluator = build_evaluator()
        assert isinstance(evaluator, SerialEvaluator)
        assert evaluator.ledger is not None

    def test_cache_wraps_pool(self):
        evaluator = build_evaluator(n_workers=2, cache=True)
        assert isinstance(evaluator, CachedEvaluator)
        assert isinstance(evaluator.inner, ProcessPoolEvaluator)
        assert evaluator.ledger is evaluator.inner.ledger
        evaluator.close()


class TestLegacyEvaluatorSubclass:
    def test_subclass_without_any_hook_fails_at_construction(self):
        from repro.runtime.evaluator import Evaluator

        class Hookless(Evaluator):
            """Misspelled hook: implements neither evaluation method."""

            def evaluate_matrices(self, problem, X):  # pragma: no cover
                return None

        with pytest.raises(TypeError, match="Hookless"):
            Hookless()


class TestLedger:
    def test_phases_and_totals(self):
        ledger = EvaluationLedger()
        with ledger.phase("optimize"):
            ledger.record(evaluations=10)
        with ledger.phase("robustness"):
            ledger.record(evaluations=5, cache_hits=2, cache_misses=3)
        assert ledger.total_evaluations == 15
        assert ledger.phases["optimize"].evaluations == 10
        assert ledger.phases["robustness"].wall_clock >= 0.0
        assert ledger.cache_hit_rate == pytest.approx(2 / 5)
        assert "optimize" in ledger.summary()
        as_dict = ledger.as_dict()
        assert as_dict["phases"]["robustness"]["cache_hits"] == 2

    def test_only_if_idle_suppresses_nested_default_phase(self):
        ledger = EvaluationLedger()
        with ledger.phase("pipeline"):
            with ledger.phase("optimize", only_if_idle=True):
                ledger.record(evaluations=1)
        assert "optimize" not in ledger.phases
        assert ledger.phases["pipeline"].evaluations == 1

    def test_unphased_records_land_in_run(self):
        ledger = EvaluationLedger()
        ledger.record(evaluations=2)
        assert ledger.phases["run"].evaluations == 2
