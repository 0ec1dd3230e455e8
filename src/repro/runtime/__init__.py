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
  reaches the same final archive as an uninterrupted one.

The public names below resolve on first access, so a serial solve never
loads the disk cache (``sqlite3``) or the worker pools
(``multiprocessing``).
"""

import importlib

#: Public name -> module defining it, resolved by :func:`__getattr__`.
_EXPORTS = {
    "CheckpointManager": "repro.runtime.checkpoint",
    "CachedEvaluator": "repro.runtime.evaluator",
    "DiskCache": "repro.runtime.diskcache",
    "PersistentCachedEvaluator": "repro.runtime.diskcache",
    "Evaluator": "repro.runtime.evaluator",
    "ProcessPoolEvaluator": "repro.runtime.evaluator",
    "SerialEvaluator": "repro.runtime.evaluator",
    "build_evaluator": "repro.runtime.evaluator",
    "EvaluationLedger": "repro.runtime.ledger",
    "PhaseStats": "repro.runtime.ledger",
}


def __getattr__(name: str):
    """Import the module that defines ``name`` and return the attribute."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__all__ = list(_EXPORTS)
