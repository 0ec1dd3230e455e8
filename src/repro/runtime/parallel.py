"""Order-preserving parallel map with graceful serial fallback.

:func:`parallel_map` is the low-level primitive behind the parallel knobs of
the FBA scans and the kinetic ensemble simulator: it applies one picklable callable to a list of
items across a worker pool, returning results in input order, and silently
degrades to an in-process loop when parallel execution is impossible (one
worker requested, unpicklable callable — e.g. a lambda — or a failing pool).
Because the fallback performs exactly the same calls in exactly the same
order, callers get identical results no matter which path ran.
"""

from __future__ import annotations

import multiprocessing
import pickle
from typing import Callable, Iterable, Sequence, TypeVar

__all__ = ["parallel_map"]

_Item = TypeVar("_Item")
_Value = TypeVar("_Value")

_WORKER_FUNCTION: Callable | None = None


def _map_initializer(payload: bytes) -> None:
    global _WORKER_FUNCTION
    _WORKER_FUNCTION = pickle.loads(payload)


def _map_apply(item):
    assert _WORKER_FUNCTION is not None
    return _WORKER_FUNCTION(item)


def parallel_map(
    function: Callable[[_Item], _Value],
    items: Iterable[_Item],
    n_workers: int = 1,
    mp_context: str | None = None,
    chunks_per_worker: int = 4,
) -> list[_Value]:
    """Apply ``function`` to every item, fanning out over ``n_workers`` processes.

    The callable and the items must be picklable for the parallel path; when
    they are not (or ``n_workers <= 1``, or the pool fails), the map runs
    serially in-process and still returns the same values in the same order.

    Example
    -------
    >>> parallel_map(abs, [-2, -1, 0], n_workers=1)
    [2, 1, 0]
    """
    items = list(items)
    if n_workers <= 1 or len(items) <= 1:
        return [function(item) for item in items]
    try:
        payload = pickle.dumps(function)
        pickle.dumps(items[0])
    except Exception:
        return [function(item) for item in items]
    if mp_context is None:
        mp_context = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    context = (
        multiprocessing.get_context(mp_context) if mp_context else multiprocessing.get_context()
    )
    processes = min(n_workers, len(items))
    chunksize = max(1, len(items) // (processes * chunks_per_worker))
    try:
        with context.Pool(
            processes=processes, initializer=_map_initializer, initargs=(payload,)
        ) as pool:
            return pool.map(_map_apply, items, chunksize=chunksize)
    except Exception:
        return [function(item) for item in items]
