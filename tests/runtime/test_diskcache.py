"""Tests for the persistent evaluation cache (DiskCache + two-level evaluator).

The contracts under test:

* round-trip fidelity — entries come back as the exact float64 rows stored;
* cross-process sharing — concurrent writers never corrupt the store, and a
  fresh evaluator instance answers from what an earlier one evaluated;
* disposability — a torn/garbage database file is moved aside, never trusted,
  and costs recomputation only;
* key hygiene — quantization boundary cases (``-0.0`` vs ``+0.0``, decimals
  rounding) map to the keys the correctness rules promise.
"""

import json
import multiprocessing
import sqlite3
import time

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.moo.testproblems import ZDT1
from repro.runtime import (
    CachedEvaluator,
    DiskCache,
    EvaluationLedger,
    PersistentCachedEvaluator,
    SerialEvaluator,
    build_evaluator,
)
from repro.runtime import cachekeys


def _entry(values, violations=()):
    return np.asarray(values, dtype=float), np.asarray(violations, dtype=float)


def _key(tag):
    return cachekeys.store_key(tag.encode("utf-8"))


class TestDiskCacheStore:
    def test_round_trip_preserves_exact_float64_rows(self, tmp_path):
        store = DiskCache(tmp_path)
        values = [0.1 + 0.2, -0.0, 1e-300, np.pi]
        key = _key("row")
        store.put_many({key: _entry(values, [0.5])})
        objectives, violations = store.get_many([key])[key]
        assert objectives.tobytes() == np.asarray(values, dtype=float).tobytes()
        assert violations.tolist() == [0.5]

    def test_get_many_returns_only_the_keys_found(self, tmp_path):
        store = DiskCache(tmp_path)
        store.put_many({_key("a"): _entry([1.0]), _key("b"): _entry([2.0])})
        found = store.get_many([_key("a"), _key("missing"), _key("b"), _key("a")])
        assert sorted(found) == sorted([_key("a"), _key("b")])

    def test_put_many_is_idempotent(self, tmp_path):
        store = DiskCache(tmp_path)
        entries = {_key("a"): _entry([1.0])}
        assert store.put_many(entries) == 1
        assert store.put_many(entries) == 0
        assert len(store) == 1

    def test_entries_persist_across_store_instances(self, tmp_path):
        DiskCache(tmp_path).put_many({_key("a"): _entry([3.0, 4.0])})
        reopened = DiskCache(tmp_path)
        assert reopened.get_many([_key("a")])[_key("a")][0].tolist() == [3.0, 4.0]

    def test_garbage_database_file_is_moved_aside(self, tmp_path):
        store = DiskCache(tmp_path)
        store.put_many({_key("a"): _entry([1.0])})
        store.close()
        store.path.write_bytes(b"this is not a sqlite database " * 40)
        reopened = DiskCache(tmp_path)
        assert reopened.get_many([_key("a")]) == {}
        assert reopened.resets == 1
        assert list(tmp_path.glob("*.corrupt-*"))
        # and the store is usable again afterwards
        reopened.put_many({_key("b"): _entry([2.0])})
        assert len(reopened) == 1

    def test_stats_reports_path_entries_and_size(self, tmp_path):
        store = DiskCache(tmp_path)
        store.put_many({_key("a"): _entry([1.0])})
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["path"] == str(tmp_path / DiskCache.FILENAME)
        assert stats["size_bytes"] > 0
        assert stats["resets"] == 0

    def test_gc_keeps_only_the_newest_entries(self, tmp_path):
        store = DiskCache(tmp_path)
        store.put_many({_key("e%d" % i): _entry([float(i)]) for i in range(10)})
        removed = store.gc(max_entries=3)
        assert removed == 7
        assert len(store) == 3

    def test_gc_by_age_drops_old_entries(self, tmp_path):
        store = DiskCache(tmp_path)
        store.put_many({_key("a"): _entry([1.0])})
        assert store.gc(max_age_days=1.0) == 0
        assert store.gc(max_age_days=0.0) == 1
        assert len(store) == 0

    def test_gc_rejects_negative_bounds(self, tmp_path):
        store = DiskCache(tmp_path)
        with pytest.raises(ConfigurationError):
            store.gc(max_entries=-1)
        with pytest.raises(ConfigurationError):
            store.gc(max_age_days=-0.5)

    def test_clear_empties_the_store(self, tmp_path):
        store = DiskCache(tmp_path)
        store.put_many({_key("a"): _entry([1.0]), _key("b"): _entry([2.0])})
        assert store.clear() == 2
        assert len(store) == 0

    def test_chunked_probe_handles_many_keys(self, tmp_path):
        store = DiskCache(tmp_path)
        entries = {_key("k%d" % i): _entry([float(i)]) for i in range(1000)}
        assert store.put_many(entries) == 1000
        found = store.get_many(list(entries))
        assert len(found) == 1000

    def test_incompatible_format_version_clears_entries(self, tmp_path):
        store = DiskCache(tmp_path)
        store.put_many({_key("a"): _entry([1.0])})
        store.close()
        with sqlite3.connect(str(store.path)) as conn:
            conn.execute("UPDATE meta SET value='0' WHERE key='format'")
        assert len(DiskCache(tmp_path)) == 0

    def test_a_chunk_mixing_two_widths_round_trips_exactly(self, tmp_path):
        store = DiskCache(tmp_path)
        rng = np.random.default_rng(3)
        entries = {
            _key("w%d" % i): _entry(rng.normal(size=2 + i % 2), rng.normal(size=i % 2))
            for i in range(10)
        }
        store.put_many(entries)
        found = store.get_many(list(entries))
        assert sorted(found) == sorted(entries)
        for key, (F, G) in entries.items():
            assert found[key][0].shape == F.shape and found[key][0].tobytes() == F.tobytes()
            assert found[key][1].shape == G.shape and found[key][1].tobytes() == G.tobytes()

    def test_a_shared_width_chunk_decodes_to_writable_independent_rows(self, tmp_path):
        store = DiskCache(tmp_path)
        entries = {_key("s%d" % i): _entry([float(i), -float(i)], [0.5 * i]) for i in range(5)}
        store.put_many(entries)
        found = store.get_many(list(entries))
        for key, (F, G) in entries.items():
            assert found[key][0].tobytes() == F.tobytes()
            assert found[key][1].tobytes() == G.tobytes()
        first, second = found[_key("s1")], found[_key("s2")]
        first[0][:] = 99.0
        assert second[0].tolist() == [2.0, -2.0]
        assert store.get_many([_key("s1")])[_key("s1")][0].tolist() == [1.0, -1.0]

    def test_pickled_store_reconnects_lazily(self, tmp_path):
        import pickle

        store = DiskCache(tmp_path)
        store.put_many({_key("a"): _entry([1.0])})
        clone = pickle.loads(pickle.dumps(store))
        assert clone.get_many([_key("a")])[_key("a")][0].tolist() == [1.0]


def _writer(directory, worker, n_entries, barrier):
    """One stress-test process: write a mix of private and shared keys."""
    store = DiskCache(directory)
    barrier.wait()
    for i in range(n_entries):
        entries = {
            _key("shared-%d" % i): _entry([float(i)]),
            _key("private-%d-%d" % (worker, i)): _entry([float(worker), float(i)]),
        }
        store.put_many(entries)
        store.get_many(list(entries))
    store.close()


class TestMultiProcessWriters:
    def test_concurrent_writers_never_corrupt_the_store(self, tmp_path):
        n_workers, n_entries = 4, 25
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(n_workers)
        processes = [
            context.Process(
                target=_writer, args=(str(tmp_path), worker, n_entries, barrier)
            )
            for worker in range(n_workers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
            assert process.exitcode == 0
        store = DiskCache(tmp_path)
        # shared keys written once, private keys once per worker
        assert len(store) == n_entries + n_workers * n_entries
        with sqlite3.connect(str(store.path)) as conn:
            assert conn.execute("PRAGMA integrity_check").fetchone()[0] == "ok"
        # shared entries hold consistent content regardless of who won the race
        for i in range(n_entries):
            objectives, _ = store.get_many([_key("shared-%d" % i)])[
                _key("shared-%d" % i)
            ]
            assert objectives.tolist() == [float(i)]


class TestQuantizationBoundaries:
    def test_negative_zero_and_positive_zero_share_a_key(self):
        row_neg = cachekeys.quantize_row(np.array([-0.0, 1.0]), 12)
        row_pos = cachekeys.quantize_row(np.array([0.0, 1.0]), 12)
        assert row_neg == row_pos

    def test_rounding_to_negative_zero_is_normalized(self):
        # -1e-13 rounds to -0.0 at 12 decimals; the key must match +0.0
        assert cachekeys.quantize_row(np.array([-1e-13]), 12) == cachekeys.quantize_row(
            np.array([0.0]), 12
        )

    def test_vectors_agreeing_to_decimals_share_a_key(self):
        a = cachekeys.quantize_row(np.array([0.1234567890123]), 12)
        b = cachekeys.quantize_row(np.array([0.1234567890124]), 12)
        c = cachekeys.quantize_row(np.array([0.1234567890999]), 12)
        assert a == b
        assert a != c

    def test_matrix_and_row_quantization_agree(self):
        X = np.array([[0.5, -0.0, 1e-13], [0.25, 0.75, -1.0]])
        assert cachekeys.quantize_matrix(X, 12) == [
            cachekeys.quantize_row(row, 12) for row in X
        ]

    def test_store_keys_have_fixed_width(self):
        short = cachekeys.store_key(b"ab")
        long = cachekeys.store_key(b"x" * 4096)
        assert len(short) == len(long) == cachekeys.STORE_KEY_SIZE
        assert short != long


class TestPersistentCachedEvaluator:
    def test_second_instance_answers_from_disk(self, tmp_path):
        problem = ZDT1(n_var=4)
        X = np.random.default_rng(0).random((6, 4))
        first = PersistentCachedEvaluator(tmp_path)
        reference = first.evaluate_matrix(problem, X)
        second = PersistentCachedEvaluator(tmp_path)
        replayed = second.evaluate_matrix(problem, X)
        assert second.ledger.total_disk_hits == 6
        assert second.ledger.total_disk_misses == 0
        assert replayed.F.tobytes() == reference.F.tobytes()

    def test_results_bitwise_match_serial_evaluation(self, tmp_path):
        problem = ZDT1(n_var=5)
        X = np.random.default_rng(1).random((8, 5))
        serial = SerialEvaluator().evaluate_matrix(problem, X)
        cached = PersistentCachedEvaluator(tmp_path).evaluate_matrix(problem, X)
        warm = PersistentCachedEvaluator(tmp_path).evaluate_matrix(problem, X)
        assert cached.F.tobytes() == serial.F.tobytes()
        assert warm.F.tobytes() == serial.F.tobytes()

    def test_l1_short_circuits_the_disk(self, tmp_path):
        problem = ZDT1(n_var=3)
        X = np.random.default_rng(2).random((4, 3))
        evaluator = PersistentCachedEvaluator(tmp_path)
        evaluator.evaluate_matrix(problem, X)
        evaluator.evaluate_matrix(problem, X)
        # the repeat is answered by the in-memory L1: no further disk lookups
        stats = evaluator.stats()
        assert stats["disk_hits"] == 0
        assert stats["disk_misses"] == 4
        assert stats["hits"] == 4

    def test_disk_counters_reach_the_ledger(self, tmp_path):
        problem = ZDT1(n_var=4)
        X = np.random.default_rng(3).random((5, 4))
        PersistentCachedEvaluator(tmp_path).evaluate_matrix(problem, X)
        ledger = EvaluationLedger()
        evaluator = PersistentCachedEvaluator(tmp_path, ledger=ledger)
        with ledger.phase("optimize"):
            evaluator.evaluate_matrix(problem, X)
        assert ledger.total_disk_hits == 5
        assert ledger.disk_hit_rate == 1.0
        assert "disk hit rate" in ledger.summary()

    def test_keys_are_scoped_by_problem_identity_on_disk(self, tmp_path):
        from repro.problems.registry import build_problem

        X = np.random.default_rng(4).random((3, 4))
        PersistentCachedEvaluator(tmp_path).evaluate_matrix(
            build_problem("zdt1?n_var=4"), X
        )
        other = PersistentCachedEvaluator(tmp_path)
        result = other.evaluate_matrix(build_problem("zdt2?n_var=4"), X)
        assert other.ledger.total_disk_hits == 0
        direct = build_problem("zdt2?n_var=4").evaluate_matrix(X)
        assert result.F.tobytes() == direct.F.tobytes()

    def test_stats_exposes_both_levels(self, tmp_path):
        problem = ZDT1(n_var=3)
        X = np.random.default_rng(5).random((3, 3))
        evaluator = PersistentCachedEvaluator(tmp_path)
        evaluator.evaluate_matrix(problem, X)
        stats = evaluator.stats()
        assert stats["disk_misses"] == 3
        assert stats["disk_hit_rate"] == 0.0
        assert stats["store"]["entries"] == 3

    def test_build_evaluator_wires_the_cache_dir(self, tmp_path):
        evaluator = build_evaluator(cache_dir=tmp_path)
        try:
            assert isinstance(evaluator, PersistentCachedEvaluator)
            assert evaluator.ledger is not None
            assert evaluator.store.directory == tmp_path
        finally:
            evaluator.close()

    def test_accepts_an_existing_store_instance(self, tmp_path):
        store = DiskCache(tmp_path)
        evaluator = PersistentCachedEvaluator(store)
        assert evaluator.store is store

    def test_pickle_round_trip(self, tmp_path):
        import pickle

        problem = ZDT1(n_var=3)
        X = np.random.default_rng(6).random((2, 3))
        evaluator = PersistentCachedEvaluator(tmp_path)
        evaluator.evaluate_matrix(problem, X)
        clone = pickle.loads(pickle.dumps(evaluator))
        clone_result = clone.evaluate_matrix(problem, X)
        assert clone_result.F.tobytes() == problem.evaluate_matrix(X).F.tobytes()

    def test_base_cached_evaluator_has_no_disk_level(self):
        problem = ZDT1(n_var=3)
        X = np.random.default_rng(7).random((3, 3))
        evaluator = CachedEvaluator()
        evaluator.evaluate_matrix(problem, X)
        assert evaluator.ledger.total_disk_hits == 0
        assert evaluator.ledger.total_disk_misses == 0
        assert "disk_hits" not in evaluator.stats()


class TestStoresWithInfoText:
    """A store written while entries carried per-row ``info`` keeps answering.

    Such a store holds JSON text in the ``info`` column; reads ignore it and
    new rows write ``NULL`` there, under the same format version.
    """

    SCHEMA = """
    CREATE TABLE entries (
        key BLOB PRIMARY KEY, f BLOB NOT NULL, g BLOB NOT NULL,
        info TEXT, created REAL NOT NULL
    ) WITHOUT ROWID;
    CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
    INSERT INTO meta (key, value) VALUES ('format', '1');
    """

    @pytest.mark.parametrize("spec", ["photosynthesis", "bnh"])
    def test_every_row_answers_from_disk_and_new_rows_write_null(self, tmp_path, spec):
        from repro.problems.registry import build_problem

        problem = build_problem(spec)
        rng = np.random.default_rng(8)
        X = rng.uniform(problem.lower_bounds, problem.upper_bounds, (6, problem.n_var))
        reference = problem.evaluate_matrix(X)
        prefix = cachekeys.problem_digest(problem)
        keys = [cachekeys.store_key(prefix + row) for row in cachekeys.quantize_matrix(X, 12)]
        conn = sqlite3.connect(str(tmp_path / DiskCache.FILENAME))
        conn.executescript(self.SCHEMA)
        conn.executemany(
            "INSERT INTO entries (key, f, g, info, created) VALUES (?, ?, ?, ?, ?)",
            [
                (
                    key,
                    reference.F[row].tobytes(),
                    reference.G[row].tobytes(),
                    json.dumps({"first": reference.F[row, 0], "row": row}, sort_keys=True),
                    time.time(),
                )
                for row, key in enumerate(keys)
            ],
        )
        conn.commit()
        conn.close()

        evaluator = PersistentCachedEvaluator(tmp_path)
        answered = evaluator.evaluate_matrix(problem, X)
        assert (evaluator.ledger.total_disk_hits, evaluator.ledger.total_disk_misses) == (6, 0)
        assert answered.F.tobytes() == reference.F.tobytes()
        assert answered.G.tobytes() == reference.G.tobytes()
        assert answered.G.shape == reference.G.shape

        fresh = rng.uniform(problem.lower_bounds, problem.upper_bounds, (3, problem.n_var))
        evaluator.evaluate_matrix(problem, fresh)
        evaluator.close()
        conn = sqlite3.connect(str(tmp_path / DiskCache.FILENAME))
        counts = conn.execute(
            "SELECT SUM(info IS NULL), SUM(info IS NOT NULL) FROM entries"
        ).fetchone()
        conn.close()
        assert counts == (3, 6)


class TestSolveWithDiskCache:
    """The tentpole correctness rule: caching never changes results."""

    @staticmethod
    def _front_text(result, problem):
        from repro.core.artifacts import dumps_json, front_payload

        return dumps_json(
            front_payload(
                result.front_objectives(),
                result.front_decisions(),
                objective_names=problem.objective_names,
                objective_senses=problem.objective_senses,
                label=result.algorithm,
            )
        )

    def test_cache_enabled_solve_is_bitwise_identical(self, tmp_path):
        from repro.problems import build_problem
        from repro.solve import solve

        problem = build_problem("zdt1?n_var=5")
        kwargs = dict(
            algorithm="nsga2", seed=9, termination=5, population_size=12
        )
        plain = solve(problem, **kwargs)
        cold = solve(problem, cache_dir=str(tmp_path), **kwargs)
        warm = solve(problem, cache_dir=str(tmp_path), **kwargs)
        reference = self._front_text(plain, problem)
        assert self._front_text(cold, problem) == reference
        assert self._front_text(warm, problem) == reference
        assert warm.ledger is not None
        assert warm.ledger.total_disk_hits > 0
        assert warm.ledger.disk_hit_rate == 1.0


class TestOneCacheKey:
    """The L1 and the store index on one key; a pickle carries the L1's keys."""

    @staticmethod
    def _filled(tmp_path, rows=12, max_entries=None):
        problem = ZDT1(n_var=4)
        X = np.random.default_rng(10).random((rows, 4))
        evaluator = PersistentCachedEvaluator(tmp_path, max_entries=max_entries)
        evaluator.evaluate_matrix(problem, X)
        return problem, X, evaluator

    def test_l1_keys_are_the_store_keys(self, tmp_path):
        problem, X, evaluator = self._filled(tmp_path, rows=3)
        prefix = cachekeys.problem_digest(problem)
        expected = [cachekeys.store_key(prefix + row) for row in cachekeys.quantize_matrix(X, 12)]
        assert list(evaluator._cache) == expected
        assert sorted(evaluator.store.get_many(expected)) == sorted(expected)

    def test_pickle_carries_keys_not_entries(self, tmp_path):
        _, _, evaluator = self._filled(tmp_path, rows=40)
        state = evaluator.__getstate__()
        assert state["_cache"] == b"".join(evaluator._cache)
        assert len(state["_cache"]) == 40 * cachekeys.STORE_KEY_SIZE

    def test_restored_l1_holds_the_same_keys_in_the_same_order(self, tmp_path):
        import pickle

        # Evicted entries stay in the store but not in the L1: the restore
        # must bring back exactly the surviving keys, in eviction order.
        problem, X, evaluator = self._filled(tmp_path, rows=12, max_entries=8)
        evaluator.evaluate_matrix(problem, X[:2])  # disk hits, re-entered last
        prefix = cachekeys.problem_digest(problem)
        row_keys = [cachekeys.store_key(prefix + row) for row in cachekeys.quantize_matrix(X, 12)]
        assert list(evaluator._cache) == row_keys[6:] + row_keys[:2]
        clone = pickle.loads(pickle.dumps(evaluator))
        assert list(clone._cache) == list(evaluator._cache)
        for key, (F, G) in evaluator._cache.items():
            assert clone._cache[key][0].tobytes() == F.tobytes()
            assert clone._cache[key][1].tobytes() == G.tobytes()
            assert clone._cache[key][1].shape == G.shape
        for each in (evaluator, clone):
            each.evaluate_matrix(problem, X[2:])
        assert list(clone._cache) == list(evaluator._cache)
        counts = [
            (each.ledger.total_cache_hits, each.ledger.total_disk_hits,
             each.ledger.total_evaluations)
            for each in (evaluator, clone)
        ]
        assert counts[0] == counts[1] == (6, 6, 12)

    def test_checkpoint_restore_gives_a_bitwise_equal_l1(self, tmp_path):
        from repro.runtime.checkpoint import CheckpointManager

        problem, X, evaluator = self._filled(tmp_path / "cache", rows=30)
        manager = CheckpointManager(tmp_path / "checkpoints")
        manager.save({"evaluator": evaluator}, generation=1)
        restored = manager.load()[0]["evaluator"]
        assert list(restored._cache) == list(evaluator._cache)
        for key, (F, G) in evaluator._cache.items():
            for saved, loaded in zip((F, G), restored._cache[key]):
                assert loaded.dtype == saved.dtype and loaded.shape == saved.shape
                assert loaded.tobytes() == saved.tobytes()

    def test_restore_drops_keys_the_store_lost(self, tmp_path):
        import pickle

        problem, X, evaluator = self._filled(tmp_path, rows=5)
        payload = pickle.dumps(evaluator)
        DiskCache(tmp_path).gc(max_entries=0)
        clone = pickle.loads(payload)
        assert clone._cache == {}
        again = clone.evaluate_matrix(problem, X)
        assert again.F.tobytes() == problem.evaluate_matrix(X).F.tobytes()
        assert clone.ledger.total_disk_misses == evaluator.ledger.total_disk_misses + 5

    def test_memory_only_cache_round_trips_its_entries(self):
        import pickle

        problem = ZDT1(n_var=4)
        X = np.random.default_rng(11).random((6, 4))
        evaluator = CachedEvaluator()
        reference = evaluator.evaluate_matrix(problem, X)
        clone = pickle.loads(pickle.dumps(evaluator))
        assert list(clone._cache) == list(evaluator._cache)
        assert all(len(key) == cachekeys.STORE_KEY_SIZE for key in clone._cache)
        replayed = clone.evaluate_matrix(problem, X)
        assert replayed.F.tobytes() == reference.F.tobytes()
        assert clone.ledger.total_cache_hits == 6
        assert clone.ledger.total_evaluations == evaluator.ledger.total_evaluations == 6

    def test_a_store_written_under_the_long_key_derivation_still_answers(self, tmp_path):
        # Stores written before the L1 shared the store key hashed the same
        # bytes, so their entries keep answering. A sentinel row proves the
        # answer came from disk, not from evaluation.
        problem = ZDT1(n_var=3)
        X = np.random.default_rng(12).random((4, 3))
        prefix = cachekeys.problem_digest(problem)
        sentinel = (np.array([-7.0, -8.0]), np.zeros(0))
        DiskCache(tmp_path).put_many(
            {cachekeys.store_key(prefix + cachekeys.quantize_row(x, 12)): sentinel for x in X}
        )
        evaluator = PersistentCachedEvaluator(tmp_path)
        answered = evaluator.evaluate_matrix(problem, X)
        assert (evaluator.ledger.total_disk_hits, evaluator.ledger.total_disk_misses) == (4, 0)
        assert evaluator.ledger.total_evaluations == 0
        assert answered.F.tolist() == [[-7.0, -8.0]] * 4


class TestResumeWithDiskCache:
    """A checkpointed ``--cache-dir`` run resumes with the ledger of a straight run."""

    @staticmethod
    def _ledger(directory):
        ledger = json.loads((directory / "ledger.json").read_text(encoding="utf-8"))
        for phase in ledger["phases"].values():
            del phase["wall_clock"]
        return ledger

    @pytest.mark.parametrize("algorithm", ["nsga2", "moead", "pmo2"])
    def test_resumed_ledger_equals_the_straight_run(self, tmp_path, algorithm, capsys):
        from repro.cli.main import main

        common = ["solve", "bnh", "--algorithm", algorithm, "--population", "8",
                  "--seed", "0", "--quiet"]
        straight = common + ["--generations", "6", "--cache-dir", str(tmp_path / "c1"),
                             "--telemetry-dir", str(tmp_path / "t1"),
                             "--front-json", str(tmp_path / "straight.json")]
        resumable = common + ["--cache-dir", str(tmp_path / "c2"),
                              "--checkpoint-dir", str(tmp_path / "k"),
                              "--checkpoint-interval", "2",
                              "--telemetry-dir", str(tmp_path / "t2")]
        assert main(straight) == 0
        assert main(resumable + ["--generations", "4"]) == 0
        assert main(resumable + ["--generations", "6",
                                 "--front-json", str(tmp_path / "resumed.json")]) == 0
        capsys.readouterr()
        expected = self._ledger(tmp_path / "t1")
        assert expected["total_cache_hits"] > 0
        assert self._ledger(tmp_path / "t2") == expected
        assert (tmp_path / "resumed.json").read_bytes() == (tmp_path / "straight.json").read_bytes()

    def test_restore_after_gc_reevaluates_and_keeps_the_front(self, tmp_path):
        from repro.problems import build_problem
        from repro.solve import solve

        problem = build_problem("zdt1")
        kwargs = dict(algorithm="pmo2", seed=0, island_population_size=8)
        plain = solve(problem, termination=6, **kwargs)
        straight = solve(problem, termination=6, cache_dir=str(tmp_path / "c1"), **kwargs)
        checkpointed = dict(cache_dir=str(tmp_path / "c2"),
                            checkpoint_dir=str(tmp_path / "k"), checkpoint_interval=2)
        solve(problem, termination=4, **checkpointed, **kwargs)
        assert DiskCache(tmp_path / "c2").gc(max_entries=0) > 0
        resumed = solve(problem, termination=6, **checkpointed, **kwargs)

        assert resumed.checkpoint.restored_generation == 4
        assert resumed.front_objectives().tobytes() == plain.front_objectives().tobytes()
        assert resumed.front_decisions().tobytes() == plain.front_decisions().tobytes()
        # The lost rows were evaluated again instead of answered by the L1.
        assert resumed.ledger.total_cache_hits < straight.ledger.total_cache_hits
        assert resumed.ledger.total_evaluations > straight.ledger.total_evaluations
