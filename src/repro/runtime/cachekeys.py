"""Content-addressed cache keys for evaluation memoization.

Every cache in the runtime layer — the in-memory L1 of
:class:`~repro.runtime.evaluator.CachedEvaluator` and the disk-backed L2 of
:class:`~repro.runtime.diskcache.DiskCache` — keys an entry on one
fixed-width :func:`store_key`, hashed from the same two canonical
ingredients:

* the **problem digest**: a fixed-width hash of the problem's
  :meth:`~repro.problems.base.Problem.cache_identity` payload (canonical
  problem spec string, design-space JSON, objective count and senses), so
  entries of different problems can never be confused; and
* the **quantized row bytes**: the decision vector rounded to a fixed number
  of decimals (with ``-0.0`` normalized to ``+0.0``) and serialized as raw
  float64 bytes, so vectors differing only by floating-point dust share an
  entry.

Both ingredients are pure functions of their inputs — no object identities,
no timestamps — which is what makes the keys stable across processes, runs
and machines and lets the disk cache be shared by every worker that can see
the same directory.

Example
-------
>>> import numpy as np
>>> from repro.moo.testproblems import ZDT1
>>> digest = problem_digest(ZDT1(n_var=4))
>>> rows = quantize_matrix(np.zeros((1, 4)), decimals=12)
>>> len(store_key(digest + rows[0]))
24
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.problems.base import Problem

__all__ = [
    "PROBLEM_DIGEST_SIZE",
    "STORE_KEY_SIZE",
    "quantize_matrix",
    "quantize_row",
    "problem_digest",
    "store_key",
]

#: Width (bytes) of the problem digest prefixing every row before it is hashed.
PROBLEM_DIGEST_SIZE = 16

#: Width (bytes) of the hashed key both cache levels index on.
STORE_KEY_SIZE = 24


def quantize_matrix(X: np.ndarray, decimals: int) -> list[bytes]:
    """Quantize an ``(n, n_var)`` decision matrix into per-row key bytes.

    Rounds the whole matrix in one vectorized pass, normalizes ``-0.0`` to
    ``+0.0`` (both must hash identically — they compare equal and evaluate
    identically) and serializes each row as raw float64 bytes.

    Example
    -------
    >>> import numpy as np
    >>> a, b = quantize_matrix(np.array([[-0.0], [0.0]]), decimals=12)
    >>> a == b
    True
    """
    quantized = np.round(np.asarray(X, dtype=float), int(decimals))
    quantized += 0.0  # normalize -0.0 to +0.0 so both hash identically
    return [quantized[index].tobytes() for index in range(quantized.shape[0])]


def quantize_row(x: np.ndarray, decimals: int) -> bytes:
    """Quantize one decision vector into its key bytes (see ``quantize_matrix``).

    Example
    -------
    >>> import numpy as np
    >>> quantize_row(np.array([1.0 + 1e-15]), 12) == quantize_row(np.array([1.0]), 12)
    True
    """
    return quantize_matrix(np.asarray(x, dtype=float).reshape(1, -1), decimals)[0]


def _plain(value):
    """Coerce numpy scalars/arrays inside identity payloads to JSON types."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError("cannot serialize %r in a cache identity" % type(value).__name__)


def problem_digest(problem: "Problem") -> bytes:
    """Fixed-width digest of a problem's canonical cache identity.

    The digest hashes the JSON form of
    :meth:`~repro.problems.base.Problem.cache_identity` — canonical spec
    string, design-space JSON, objective metadata — with sorted keys and a
    fixed separator layout, so two problem *instances* describing the same
    optimization task produce the same digest in any process.

    Example
    -------
    >>> from repro.moo.testproblems import ZDT1
    >>> problem_digest(ZDT1(n_var=4)) == problem_digest(ZDT1(n_var=4))
    True
    >>> problem_digest(ZDT1(n_var=4)) == problem_digest(ZDT1(n_var=5))
    False
    """
    payload = json.dumps(
        problem.cache_identity(),
        sort_keys=True,
        separators=(",", ":"),
        default=_plain,
    )
    return hashlib.blake2b(
        payload.encode("utf-8"), digest_size=PROBLEM_DIGEST_SIZE
    ).digest()


def store_key(content: bytes) -> bytes:
    """Hash a problem digest + quantized row bytes into the fixed-width key.

    The row bytes grow with the number of decision variables; both cache
    levels index on a fixed :data:`STORE_KEY_SIZE`-byte blake2b of them
    instead, keeping every index compact at any dimensionality and letting
    a checkpoint name the in-memory entries by key alone.

    Example
    -------
    >>> len(store_key(b"anything")) == STORE_KEY_SIZE
    True
    """
    return hashlib.blake2b(content, digest_size=STORE_KEY_SIZE).digest()
