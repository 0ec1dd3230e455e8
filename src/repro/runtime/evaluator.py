"""Evaluation engines: serial, process-pool and memoizing evaluators.

The optimizers in :mod:`repro.moo` never call the problem directly when an
evaluator is attached; instead they hand ``(n, n_var)`` decision matrices to
an :class:`Evaluator`, which decides *how* the batch is executed:

* :class:`SerialEvaluator` — in-process, via
  :meth:`~repro.problems.base.Problem.evaluate_matrix` (the batch-first
  primary path every problem implements);
* :class:`ProcessPoolEvaluator` — fan-out over a ``multiprocessing`` pool.
  The problem is pickled once per pool and unpickled in each worker during
  warm-up, so per-batch traffic is just row-chunks of the decision matrix.
  Unpicklable problems and failing workers degrade gracefully to serial
  execution;
* :class:`CachedEvaluator` — memoization on a quantized decision-vector hash
  in front of any inner evaluator, with hit/miss accounting.

Every evaluator owns an :class:`~repro.runtime.ledger.EvaluationLedger`, the
one place evaluations, batches and cache hits are counted; results, solve
events, ``ledger.json`` and ``repro stats`` all read it.

All evaluators preserve row order, so a pooled run is bitwise identical to
a serial run of the same seed (the evaluations are pure functions of the
decision matrix).  Evaluators are picklable — pools are dropped on pickling
and lazily rebuilt — which lets checkpointed optimizers carry their evaluator
(and its cache; the persistent cache carries only its keys) across a resume.
"""

from __future__ import annotations

import abc
import functools
import os
import pickle
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ConfigurationError
from repro.obs.trace import get_tracer
from repro.runtime import cachekeys
from repro.runtime.ledger import EvaluationLedger

if TYPE_CHECKING:  # pragma: no cover - typing only
    # The runtime layer sits *below* repro.moo (optimizers evaluate through
    # it), so the problem types stay typing-only here: a module-level import
    # would create a cycle that breaks `import repro.runtime` when it is the
    # first repro package imported in a process.
    from repro.problems.base import Problem
    from repro.problems.batch import BatchEvaluation

__all__ = [
    "Evaluator",
    "SerialEvaluator",
    "ProcessPoolEvaluator",
    "CachedEvaluator",
    "build_evaluator",
]


class Evaluator(abc.ABC):
    """Strategy object deciding how decision matrices are evaluated.

    Subclasses implement :meth:`evaluate_matrix`, the batch-first contract.

    Parameters
    ----------
    ledger:
        :class:`~repro.runtime.ledger.EvaluationLedger` receiving evaluation
        counts and cache statistics; a fresh one when omitted.
    """

    def __init__(self, ledger: EvaluationLedger | None = None) -> None:
        self.ledger = ledger if ledger is not None else EvaluationLedger()

    @abc.abstractmethod
    def evaluate_matrix(self, problem: "Problem", X: np.ndarray) -> "BatchEvaluation":
        """Evaluate an ``(n, n_var)`` decision matrix, preserving row order."""

    def evaluate_objective(self, problem: "Problem", name: str, X: np.ndarray) -> np.ndarray:
        """Reported objective ``name`` of every row: :meth:`Problem.objective_matrix`, bitwise.

        This default keeps one column of :meth:`evaluate_matrix`, so caches
        answer it from, and count it in, their full-row entries.
        """
        column = problem.objective_index(name)
        return problem.reported_objectives(self.evaluate_matrix(problem, X).F)[:, column]

    def close(self) -> None:
        """Release any held resources (worker pools); idempotent."""

    def __enter__(self) -> "Evaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _in_process(ledger: EvaluationLedger, label: str, evaluate):
    """Run ``evaluate()`` in one ``evaluator.batch`` span and count its rows."""
    with get_tracer().span("evaluator.batch", evaluator=label) as span:
        result = evaluate()
        span.set(rows=len(result))
    ledger.record(evaluations=len(result), batches=1)
    return result


class SerialEvaluator(Evaluator):
    """In-process evaluation through :meth:`Problem.evaluate_matrix`."""

    def evaluate_matrix(self, problem: "Problem", X: np.ndarray) -> "BatchEvaluation":
        """Evaluate the matrix in-process and record the ledger counters."""
        return _in_process(self.ledger, "serial", lambda: problem.evaluate_matrix(X))

    def evaluate_objective(self, problem: "Problem", name: str, X: np.ndarray) -> np.ndarray:
        """Compute the one objective in-process through :meth:`Problem.objective_matrix`."""
        return _in_process(self.ledger, "serial", lambda: problem.objective_matrix(name, X))


# ---------------------------------------------------------------------------
# Process-pool fan-out
# ---------------------------------------------------------------------------
# Worker-side state: each worker unpickles the problem exactly once (during
# pool warm-up) and keeps it in this module-level slot, so map calls only
# ship decision-matrix chunks.
_WORKER_PROBLEM: "Problem | None" = None


def _pool_initializer(payload: bytes) -> None:
    global _WORKER_PROBLEM
    _WORKER_PROBLEM = pickle.loads(payload)


def _pool_warmup(_: int) -> int:
    # No-op task forcing every worker through the initializer up front, so the
    # first real batch is not charged the process start-up cost.
    return os.getpid()


def _pool_apply(method: str, args: tuple, chunk: np.ndarray):
    # ``evaluate_matrix`` (no args) or ``objective_matrix`` (the name first).
    assert _WORKER_PROBLEM is not None
    return getattr(_WORKER_PROBLEM, method)(*args, chunk)


class ProcessPoolEvaluator(Evaluator):
    """Multiprocessing fan-out over picklable problems.

    Parameters
    ----------
    n_workers:
        Number of worker processes (default: ``os.cpu_count()``).
    chunks_per_worker:
        Each batch is split into ``n_workers * chunks_per_worker`` ordered
        row-chunks, trading dispatch overhead against load balancing.
    mp_context:
        ``multiprocessing`` start method; defaults to ``"fork"`` where
        available (cheapest on Linux) and the platform default elsewhere.
    ledger:
        Optional shared ledger (a fresh one by default).

    Notes
    -----
    Workers evaluate *copies* of the problem, so problems must be stateless
    with respect to evaluation (all problems in this library are): a
    problem that counts its own evaluations keeps its parent-side counter
    untouched, so count with the optimizer's ``evaluations`` or the ledger.

    Degrades to serial execution (recorded in :attr:`fallbacks`) when the
    problem cannot be pickled, when the pool cannot be brought up at all, or
    when it fails mid-batch — e.g. a worker raising or dying — so callers
    never have to special-case the parallel path.  Set-up failures count one
    fallback and are remembered, so they are not re-attempted every batch.
    """

    def __init__(
        self,
        n_workers: int | None = None,
        chunks_per_worker: int = 4,
        mp_context: str | None = None,
        ledger: EvaluationLedger | None = None,
    ) -> None:
        super().__init__(ledger)
        self.n_workers = int(n_workers) if n_workers is not None else (os.cpu_count() or 1)
        if self.n_workers < 1:
            raise ConfigurationError("n_workers must be at least 1")
        if chunks_per_worker < 1:
            raise ConfigurationError("chunks_per_worker must be at least 1")
        self.chunks_per_worker = int(chunks_per_worker)
        if mp_context is None:
            # Imported here: a serial or cached run never loads multiprocessing.
            import multiprocessing

            mp_context = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        self.mp_context = mp_context
        #: Number of times execution fell back to serial: once per mid-batch
        #: pool failure, once per problem that cannot be pickled, once per
        #: environment where the pool cannot be brought up.
        self.fallbacks = 0
        self._pool = None
        self._pool_problem: "Problem | None" = None
        self._unpicklable: "Problem | None" = None
        self._pool_broken = False

    # ------------------------------------------------------------------
    def _ensure_pool(self, problem: "Problem") -> bool:
        """Bring up (or reuse) a pool warmed with ``problem``; False = go serial."""
        if self._pool is not None and self._pool_problem is problem:
            return True
        if self._unpicklable is problem or self._pool_broken:
            return False
        self.close()
        try:
            payload = pickle.dumps(problem)
        except Exception:
            self._unpicklable = problem
            self.fallbacks += 1
            return False
        import multiprocessing

        pool = None
        try:
            context = (
                multiprocessing.get_context(self.mp_context)
                if self.mp_context
                else multiprocessing.get_context()
            )
            pool = context.Pool(
                processes=self.n_workers,
                initializer=_pool_initializer,
                initargs=(payload,),
            )
            pool.map(_pool_warmup, range(self.n_workers))
        except Exception:
            # Pool creation or warm-up failed (process limits, missing start
            # method, dying workers): remember it so every later batch goes
            # straight to serial instead of re-paying a doomed start-up.
            if pool is not None:
                pool.terminate()
                pool.join()
            self._pool_broken = True
            self.fallbacks += 1
            return False
        self._pool = pool
        self._pool_problem = problem
        return True

    def _chunks(self, X: np.ndarray) -> list[np.ndarray]:
        n_chunks = min(X.shape[0], self.n_workers * self.chunks_per_worker)
        bounds = np.linspace(0, X.shape[0], n_chunks + 1).astype(int)
        return [X[bounds[i] : bounds[i + 1]] for i in range(n_chunks)]

    def _fan_out(self, problem: "Problem", X: np.ndarray, method: str, args: tuple, concat):
        """Map ``problem.<method>(*args, chunk)`` over row-chunks and ``concat`` them in order.

        One row, one worker, an unpoolable problem or a failing pool run it in-process.
        """
        X = problem.validate_matrix(X)
        evaluate = functools.partial(getattr(problem, method), *args, X)
        if X.shape[0] == 0:
            return evaluate()
        if self.n_workers <= 1 or X.shape[0] == 1 or not self._ensure_pool(problem):
            return _in_process(self.ledger, "pool-serial-fallback", evaluate)
        chunks = self._chunks(X)
        with get_tracer().span(
            "evaluator.batch",
            evaluator="pool",
            workers=self.n_workers,
            chunks=len(chunks),
        ) as span:
            try:
                parts = self._pool.map(functools.partial(_pool_apply, method, args), chunks)
            except Exception:
                # A worker raised or the pool broke: tear it down and degrade
                # to the in-process path, which reproduces any genuine
                # evaluation error with a readable traceback.
                span.set(fallback=True)
                self.fallbacks += 1
                self.close()
                return _in_process(self.ledger, "pool-serial-fallback", evaluate)
            result = concat(parts)
            span.set(rows=len(result))
        self.ledger.record(evaluations=len(result), batches=1)
        return result

    def evaluate_matrix(self, problem: "Problem", X: np.ndarray) -> "BatchEvaluation":
        """Fan the matrix out over the worker pool (serial fallback included)."""
        from repro.problems.batch import BatchEvaluation

        return self._fan_out(problem, X, "evaluate_matrix", (), BatchEvaluation.concat)

    def evaluate_objective(self, problem: "Problem", name: str, X: np.ndarray) -> np.ndarray:
        """Fan the one-objective evaluation out over the same chunks."""
        problem.objective_index(name)  # an unknown name fails here, not in every worker
        return self._fan_out(problem, X, "objective_matrix", (name,), np.concatenate)

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        self._pool_problem = None

    def __getstate__(self) -> dict:
        # Pools are not picklable; drop them and rebuild lazily after restore.
        state = self.__dict__.copy()
        state["_pool"] = None
        state["_pool_problem"] = None
        state["_unpicklable"] = None
        state["_pool_broken"] = False  # a restored run may land on healthier hardware
        return state

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ProcessPoolEvaluator(n_workers=%d, fallbacks=%d)" % (
            self.n_workers,
            self.fallbacks,
        )


# ---------------------------------------------------------------------------
# Memoization
# ---------------------------------------------------------------------------
class CachedEvaluator(Evaluator):
    """Memoizes evaluations on a quantized decision-vector hash.

    Evolutionary runs re-evaluate identical vectors surprisingly often —
    elitist copies, migrants broadcast to several islands, robustness trials
    that clip back onto the nominal design — and the expensive biology makes
    every avoided evaluation count.

    Parameters
    ----------
    inner:
        Evaluator performing the cache misses (default: serial).
    decimals:
        Decision vectors are rounded to this many decimals before hashing, so
        that vectors differing only by floating-point dust share an entry.
    max_entries:
        Optional cache bound; the oldest entries are evicted first.
    ledger:
        Optional ledger; defaults to the inner evaluator's ledger so hit and
        miss counts land next to the raw evaluation counts.

    Keys are **content-addressed**: each is the 24-byte
    :func:`~repro.runtime.cachekeys.store_key` of the problem's
    :func:`~repro.runtime.cachekeys.problem_digest` (canonical spec string,
    design-space JSON, objective metadata) followed by the quantized row
    bytes, so one evaluator instance can serve several problems without ever
    confusing their entries, and the cache survives problem re-instantiation
    across checkpoint restores.  Entries store per-row ``(F row, G row)``
    pairs, and every lookup hands out fresh copies so callers mutating
    their view cannot corrupt the cache.

    Subclasses may layer a second, slower cache behind the in-memory one by
    overriding the :meth:`_disk_fetch` / :meth:`_disk_store` hooks —
    :class:`repro.runtime.diskcache.PersistentCachedEvaluator` is the
    disk-backed L2 built on exactly that seam, and its store indexes on the
    same keys.
    """

    def __init__(
        self,
        inner: Evaluator | None = None,
        decimals: int = 12,
        max_entries: int | None = None,
        ledger: EvaluationLedger | None = None,
    ) -> None:
        self.inner = inner if inner is not None else SerialEvaluator()
        super().__init__(ledger if ledger is not None else self.inner.ledger)
        if decimals < 0:
            raise ConfigurationError("decimals must be non-negative")
        if max_entries is not None and max_entries < 1:
            raise ConfigurationError("max_entries must be positive")
        self.decimals = int(decimals)
        self.max_entries = max_entries
        #: key -> (objectives row, violations row) per-row entry.
        self._cache: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
        self._problem: "Problem | None" = None
        self._prefix: bytes = b""

    # ------------------------------------------------------------------
    def _digest_for(self, problem: "Problem") -> bytes:
        """Problem digest prefixing every key (memoized per problem instance)."""
        if problem is not self._problem:
            self._problem = problem
            self._prefix = cachekeys.problem_digest(problem)
        return self._prefix

    def _disk_fetch(
        self, keys: list[bytes]
    ) -> "dict[bytes, tuple[np.ndarray, np.ndarray]] | None":
        """L2 lookup hook: entries found behind the in-memory cache.

        The base evaluator has no second layer and returns ``None`` (which
        also keeps the ledger's ``disk_*`` counters untouched — distinct from
        ``{}``, an L2 that was consulted and missed everything).
        """
        return None

    def _disk_store(
        self, entries: "dict[bytes, tuple[np.ndarray, np.ndarray]]"
    ) -> None:
        """L2 write-back hook for freshly evaluated entries (no-op by default)."""

    def _evict(self) -> None:
        if self.max_entries is None:
            return
        while len(self._cache) > self.max_entries:
            self._cache.pop(next(iter(self._cache)))

    def evaluate_matrix(self, problem: "Problem", X: np.ndarray) -> "BatchEvaluation":
        """Answer rows from the cache, evaluating only the distinct misses."""
        from repro.problems.batch import BatchEvaluation

        prefix = self._digest_for(problem)
        X = problem.validate_matrix(X)
        if X.shape[0] == 0:
            return BatchEvaluation.empty(problem.n_obj, problem.n_con)
        keys = [
            cachekeys.store_key(prefix + row_bytes)
            for row_bytes in cachekeys.quantize_matrix(X, self.decimals)
        ]
        rows: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(keys)
        # Positions of each distinct uncached key, in first-seen order, so
        # duplicates inside one batch are evaluated once.
        pending: dict[bytes, list[int]] = {}
        hits = 0
        for index, key in enumerate(keys):
            cached = self._cache.get(key)
            if cached is not None:
                rows[index] = cached
                hits += 1
            else:
                pending.setdefault(key, []).append(index)
        disk_hits = disk_misses = 0
        missing = pending
        if pending:
            # L2 probe between the in-memory misses and the real evaluation:
            # the persistent subclass resolves whatever a previous run (or a
            # sibling worker) already computed.
            fetched = self._disk_fetch(list(pending))
            if fetched is not None:
                missing = {}
                for key, positions in pending.items():
                    entry = fetched.get(key)
                    if entry is None:
                        missing[key] = positions
                        continue
                    self._cache[key] = entry
                    hits += len(positions) - 1
                    for position in positions:
                        rows[position] = entry
                disk_hits = len(pending) - len(missing)
                disk_misses = len(missing)
        if missing:
            miss_matrix = X[[positions[0] for positions in missing.values()]]
            with get_tracer().span(
                "evaluator.cache_fill", misses=len(missing), lookups=len(keys)
            ):
                fresh = self.inner.evaluate_matrix(problem, miss_matrix)
            fresh_entries: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
            for row, (key, positions) in enumerate(missing.items()):
                entry = (np.array(fresh.F[row], copy=True), np.array(fresh.G[row], copy=True))
                self._cache[key] = entry
                fresh_entries[key] = entry
                hits += len(positions) - 1
                for position in positions:
                    rows[position] = entry
            self._disk_store(fresh_entries)
        if pending:
            self._evict()
        self.ledger.record(
            cache_hits=hits,
            cache_misses=len(pending),
            disk_hits=disk_hits,
            disk_misses=disk_misses,
        )
        # Stacking copies the cached rows, so the returned batch is isolated.
        F = np.vstack([entry[0] for entry in rows])  # type: ignore[index]
        G = np.vstack([entry[1] for entry in rows])  # type: ignore[index]
        return BatchEvaluation(F=F, G=G)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The ledger's hit/miss counters and the entry count in a plain dictionary."""
        return {
            "hits": self.ledger.total_cache_hits,
            "misses": self.ledger.total_cache_misses,
            "hit_rate": self.ledger.cache_hit_rate,
            "entries": len(self._cache),
        }

    def clear(self) -> None:
        """Drop every cached entry (counters are kept)."""
        self._cache.clear()

    def close(self) -> None:
        self.inner.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "CachedEvaluator(entries=%d, inner=%r)" % (len(self._cache), self.inner)


# ---------------------------------------------------------------------------
def build_evaluator(
    n_workers: int = 1,
    cache: bool = False,
    decimals: int = 12,
    chunks_per_worker: int = 4,
    ledger: EvaluationLedger | None = None,
    cache_dir: "str | os.PathLike | None" = None,
) -> Evaluator:
    """Assemble the evaluator stack implied by the common knobs.

    ``n_workers > 1`` selects a process pool, otherwise serial; ``cache=True``
    wraps the result in a :class:`CachedEvaluator`.  ``cache_dir`` selects the
    persistent two-level cache instead
    (:class:`~repro.runtime.diskcache.PersistentCachedEvaluator`): in-memory
    L1 plus a disk store in that directory, shared with every other process
    pointing at it.  A fresh ledger is created when none is supplied, so the
    returned evaluator always accounts for its work.

    Example
    -------
    A cached 4-worker evaluator shared by two solves::

        with build_evaluator(n_workers=4, cache=True) as evaluator:
            for seed in (7, 8):
                solve(problem, "nsga2", seed=seed, termination=100,
                      evaluator=evaluator)
        print(evaluator.ledger.summary())
    """
    ledger = ledger if ledger is not None else EvaluationLedger()
    base: Evaluator
    if n_workers > 1:
        base = ProcessPoolEvaluator(
            n_workers=n_workers, chunks_per_worker=chunks_per_worker, ledger=ledger
        )
    else:
        base = SerialEvaluator(ledger=ledger)
    if cache_dir is not None:
        # Imported lazily: diskcache layers on this module.
        from repro.runtime.diskcache import DiskCache, PersistentCachedEvaluator

        return PersistentCachedEvaluator(
            DiskCache(cache_dir), inner=base, decimals=decimals, ledger=ledger
        )
    if cache:
        return CachedEvaluator(inner=base, decimals=decimals, ledger=ledger)
    return base
