"""Execution runtime: parallel & batched evaluation, caching, checkpointing.

The paper's PMO2 is a *coarse-grained parallel* island model, and the
expensive objectives (the Calvin-cycle steady state, the Geobacter FBA)
dominate wall-clock time.  This sub-package is the layer that makes every
engine, problem and benchmark fast at once:

* :mod:`repro.runtime.evaluator` — the :class:`~repro.runtime.Evaluator`
  strategy with serial, process-pool and memoizing implementations.
  :func:`repro.solve.solve` builds one for every run (``solve(...,
  n_workers=4, cache=True)``, or pass ``evaluator=``) to fan evaluation
  batches out over worker processes without changing results: pooled runs
  are bitwise identical to serial runs of the same seed;
* :mod:`repro.runtime.diskcache` — the persistent content-addressed
  evaluation cache: a disk-backed store shared across runs, processes and
  the serve worker pool, layered as an L2 behind the in-memory cache by
  :class:`~repro.runtime.PersistentCachedEvaluator`;
* :mod:`repro.runtime.ledger` — the evaluation-budget ledger (evaluations,
  cache hits/misses — memory and disk — wall-clock per phase) surfaced in
  result objects;
* :mod:`repro.runtime.checkpoint` — atomic periodic serialization of
  optimizer state, so a killed run resumes from its latest checkpoint and
  reaches the same final archive as an uninterrupted one;
* :mod:`repro.runtime.parallel` — the order-preserving
  :func:`~repro.runtime.parallel_map` primitive behind the ``n_workers``
  knobs of the robustness framework.
"""

from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.diskcache import DiskCache, PersistentCachedEvaluator
from repro.runtime.evaluator import (
    CachedEvaluator,
    Evaluator,
    ProcessPoolEvaluator,
    SerialEvaluator,
    build_evaluator,
)
from repro.runtime.ledger import EvaluationLedger, PhaseStats
from repro.runtime.parallel import parallel_map

__all__ = [
    "CheckpointManager",
    "CachedEvaluator",
    "DiskCache",
    "PersistentCachedEvaluator",
    "Evaluator",
    "ProcessPoolEvaluator",
    "SerialEvaluator",
    "build_evaluator",
    "EvaluationLedger",
    "PhaseStats",
    "parallel_map",
]
