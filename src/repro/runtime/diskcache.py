"""Persistent content-addressed evaluation cache shared across runs.

The in-memory :class:`~repro.runtime.evaluator.CachedEvaluator` dies with its
process, so a service answering repetitive traffic re-evaluates identical
designs job after job.  This module adds the missing L2:

* :class:`DiskCache` — a disk-backed store of evaluation entries in a single
  SQLite database file (WAL mode), safe under concurrent multi-process
  writers and tolerant of torn writes: a corrupted database file is moved
  aside and rebuilt, never trusted.  Lookups and write-backs are batched
  (:meth:`DiskCache.get_many` / :meth:`DiskCache.put_many`), so the
  batch-first ``evaluate_matrix`` path stays vectorized — one probe for the
  whole population matrix, one write-back for the misses.
* :class:`PersistentCachedEvaluator` — the two-level evaluator: the
  in-memory cache of :class:`~repro.runtime.evaluator.CachedEvaluator` as L1
  and a :class:`DiskCache` as L2, layered over any inner evaluator
  (:class:`~repro.runtime.evaluator.ProcessPoolEvaluator` included).

Keys come from :mod:`repro.runtime.cachekeys`: the problem's canonical
identity digest plus the quantized decision-row bytes, hashed to a fixed
width.  The L1 and the store index on the same key.  Because keys are
content-addressed — no object identities, no timestamps — every process
pointing at the same cache directory shares one store: repeated runs, the
serve worker pool, warm-started re-solves.

Correctness rules
-----------------
A cache-enabled run is **bitwise identical** to a cache-disabled run: entries
store exact float64 objective/violation rows, problems promise evaluation to
be a pure function of the decision matrix, and quantization only merges
vectors that agree to ``decimals`` decimal places (the same rule the
in-memory cache always applied).  The store is disposable by construction —
deleting the cache directory (or ``repro cache clear``) costs recomputation,
never correctness.

Example
-------
Two solves sharing one cache directory; the second answers from disk::

    from repro.problems import build_problem
    from repro.solve import solve

    problem = build_problem("zdt1")
    first = solve(problem, "nsga2", seed=7, termination=20,
                  cache_dir="/tmp/evalcache")
    second = solve(problem, "nsga2", seed=7, termination=20,
                   cache_dir="/tmp/evalcache")
    assert second.ledger.total_disk_hits > 0
"""

from __future__ import annotations

import os
import sqlite3
import time
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.exceptions import ConfigurationError
from repro.runtime import cachekeys
from repro.runtime.evaluator import CachedEvaluator, Evaluator
from repro.runtime.ledger import EvaluationLedger

__all__ = ["DiskCache", "PersistentCachedEvaluator"]

#: Keys per SQL ``IN`` clause — comfortably under SQLite's default 999
#: variable limit while keeping probe round trips rare.
_CHUNK = 400

#: Attempts for operations hitting a transiently locked database.
_RETRIES = 5

_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (
    key     BLOB PRIMARY KEY,
    f       BLOB NOT NULL,
    g       BLOB NOT NULL,
    info    TEXT,
    created REAL NOT NULL
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""

#: Bumped when the entry layout changes; a store written by an incompatible
#: version is cleared rather than misread.  The ``info`` column is a relic of
#: per-row evaluation by-products: entries are written with ``NULL`` there and
#: reads ignore it, so stores that still hold text in it keep answering.
_FORMAT_VERSION = "1"


class DiskCache:
    """Disk-backed content-addressed store of evaluation entries.

    One SQLite database file (``evalcache.sqlite``) inside ``directory``
    holds every entry.  The database runs in WAL mode with a generous busy
    timeout, so any number of processes may read and write concurrently —
    writers serialize briefly on commit, readers never block.  All writes are
    idempotent ``INSERT OR IGNORE`` statements: two workers racing to store
    the same key both succeed, and the entry is identical either way because
    evaluation is a pure function of the key's content.

    The store is **disposable**: any database-level corruption (a torn write
    from a killed process, a truncated file) is handled by moving the bad
    file aside and starting empty.  Losing entries costs recomputation only.

    Parameters
    ----------
    directory:
        Cache directory, created on first use.  Everything the store writes
        lives inside it.
    timeout:
        Seconds a connection waits on a locked database before the retry
        loop backs off and tries again.

    Example
    -------
    >>> import tempfile, numpy as np
    >>> store = DiskCache(tempfile.mkdtemp())
    >>> entry = (np.array([1.0, 2.0]), np.array([]))
    >>> store.put_many({b"k" * 24: entry})
    1
    >>> sorted(store.get_many([b"k" * 24, b"m" * 24]))
    [b'kkkkkkkkkkkkkkkkkkkkkkkk']
    """

    FILENAME = "evalcache.sqlite"

    def __init__(self, directory: str | os.PathLike, timeout: float = 10.0) -> None:
        self.directory = Path(directory)
        self.timeout = float(timeout)
        #: Times a corrupted database file was moved aside and rebuilt.
        self.resets = 0
        self._conn: sqlite3.Connection | None = None
        self._pid: int | None = None

    @property
    def path(self) -> Path:
        """Full path of the SQLite database file."""
        return self.directory / self.FILENAME

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        self.directory.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(
            str(self.path), timeout=self.timeout, isolation_level=None
        )
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.executescript(_SCHEMA)
        row = conn.execute(
            "SELECT value FROM meta WHERE key='format'"
        ).fetchone()
        if row is None:
            conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES ('format', ?)",
                (_FORMAT_VERSION,),
            )
        elif row[0] != _FORMAT_VERSION:
            # Entries written by an incompatible layout: drop them instead
            # of misreading their bytes.
            conn.execute("DELETE FROM entries")
            conn.execute(
                "UPDATE meta SET value=? WHERE key='format'", (_FORMAT_VERSION,)
            )
        return conn

    def _connection(self) -> sqlite3.Connection:
        # One connection per process: SQLite connections must not cross a
        # fork, so pooled/forked children transparently reconnect.
        if self._conn is None or self._pid != os.getpid():
            if self._conn is not None:
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass
            self._conn = self._connect()
            self._pid = os.getpid()
        return self._conn

    def _reset(self) -> None:
        """Move a corrupted database aside and start empty (cache is disposable)."""
        self.resets += 1
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None
        for suffix in ("", "-wal", "-shm"):
            source = Path(str(self.path) + suffix)
            if source.exists():
                target = Path(
                    "%s.corrupt-%d-%d%s" % (self.path, os.getpid(), self.resets, suffix)
                )
                try:
                    source.replace(target)
                except OSError:
                    try:
                        source.unlink()
                    except OSError:
                        pass

    def _run(self, operation, default):
        """Run one store operation with lock retries and corruption recovery."""
        for attempt in range(_RETRIES):
            try:
                return operation(self._connection())
            except sqlite3.OperationalError as error:
                # Transient contention ("database is locked") backs off and
                # retries; schema-level complaints on a mangled file fall
                # through to recovery on the last attempt.
                if attempt == _RETRIES - 1:
                    if "locked" in str(error) or "busy" in str(error):
                        return default
                    self._reset()
                    return default
                time.sleep(0.01 * (2**attempt))
            except sqlite3.DatabaseError:
                # Torn write / not-a-database: rebuild and report a miss.
                self._reset()
                return default
        return default

    # ------------------------------------------------------------------
    # Entry (de)serialization
    # ------------------------------------------------------------------
    @staticmethod
    def _encode(entry) -> tuple[bytes, bytes]:
        objectives, violations = entry
        f = np.ascontiguousarray(objectives, dtype=float).tobytes()
        g = np.ascontiguousarray(violations, dtype=float).tobytes()
        return f, g

    @staticmethod
    def _decode_rows(rows: list) -> dict:
        """Decode fetched ``(key, f, g)`` rows into writable float64 entries keyed by ``key``.

        Rows sharing their widths (all rows of one problem do) decode with
        one ``frombuffer`` per column over one joined copy, each entry a row
        view of it; mixed widths decode row by row.
        """
        widths = {(len(f), len(g)) for _, f, g in rows}
        if len(widths) != 1:
            return {
                bytes(key): (np.frombuffer(bytearray(f)), np.frombuffer(bytearray(g)))
                for key, f, g in rows
            }
        ((f_size, g_size),) = widths
        n = len(rows)
        F = np.frombuffer(bytearray().join(f for _, f, _ in rows)).reshape(n, f_size // 8)
        G = np.frombuffer(bytearray().join(g for _, _, g in rows)).reshape(n, g_size // 8)
        return {bytes(key): (F[i], G[i]) for i, (key, _, _) in enumerate(rows)}

    # ------------------------------------------------------------------
    # Batched lookups
    # ------------------------------------------------------------------
    def get_many(self, keys: Iterable[bytes]) -> dict:
        """Look up many keys in one pass; returns only the entries found.

        Example
        -------
        >>> import tempfile
        >>> DiskCache(tempfile.mkdtemp()).get_many([b"absent"])
        {}
        """
        distinct = list(dict.fromkeys(keys))
        found: dict[bytes, tuple] = {}

        def operation(conn):
            for start in range(0, len(distinct), _CHUNK):
                chunk = distinct[start : start + _CHUNK]
                marks = ",".join("?" * len(chunk))
                rows = conn.execute(
                    "SELECT key, f, g FROM entries WHERE key IN (%s)" % marks,
                    chunk,
                ).fetchall()
                found.update(self._decode_rows(rows))
            return found

        return self._run(operation, found)

    def put_many(self, entries: dict) -> int:
        """Store many entries in one transaction; returns rows newly written.

        Writes are best-effort and idempotent: keys already present are left
        untouched (their content is identical by construction).
        """
        rows = [(key, *self._encode(entry), time.time()) for key, entry in entries.items()]
        if not rows:
            return 0

        def operation(conn):
            conn.execute("BEGIN IMMEDIATE")
            try:
                before = conn.total_changes
                conn.executemany(
                    "INSERT OR IGNORE INTO entries (key, f, g, info, created) "
                    "VALUES (?, ?, ?, NULL, ?)",
                    rows,
                )
                written = conn.total_changes - before
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            return written

        return self._run(operation, 0)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of stored entries."""

        def operation(conn):
            return int(conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0])

        return self._run(operation, 0)

    def stats(self) -> dict:
        """Store statistics: path, entry count, on-disk size in bytes."""
        size = 0
        for suffix in ("", "-wal", "-shm"):
            candidate = Path(str(self.path) + suffix)
            if candidate.exists():
                size += candidate.stat().st_size
        return {
            "path": str(self.path),
            "entries": len(self),
            "size_bytes": size,
            "resets": self.resets,
        }

    def gc(
        self, max_entries: int | None = None, max_age_days: float | None = None
    ) -> int:
        """Expire entries by age and/or bound the store size; returns removals.

        ``max_age_days`` drops entries older than that many days;
        ``max_entries`` keeps only the newest N.  The database is compacted
        afterwards so the space is actually returned to the filesystem.
        """
        if max_entries is not None and max_entries < 0:
            raise ConfigurationError("max_entries must be non-negative")
        if max_age_days is not None and max_age_days < 0:
            raise ConfigurationError("max_age_days must be non-negative")

        def operation(conn):
            before = conn.total_changes
            if max_age_days is not None:
                cutoff = time.time() - max_age_days * 86400.0
                conn.execute("DELETE FROM entries WHERE created < ?", (cutoff,))
            if max_entries is not None:
                conn.execute(
                    "DELETE FROM entries WHERE key NOT IN ("
                    "SELECT key FROM entries ORDER BY created DESC, key LIMIT ?)",
                    (max_entries,),
                )
            removed = conn.total_changes - before
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            conn.execute("VACUUM")
            return removed

        return self._run(operation, 0)

    def clear(self) -> int:
        """Drop every entry; returns the number removed."""

        def operation(conn):
            before = conn.total_changes
            conn.execute("DELETE FROM entries")
            removed = conn.total_changes - before
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            conn.execute("VACUUM")
            return removed

        return self._run(operation, 0)

    def close(self) -> None:
        """Close the connection (the store reconnects transparently if reused)."""
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None
            self._pid = None

    def __getstate__(self) -> dict:
        # Connections cannot cross process boundaries; pickled copies (pool
        # warm-up, checkpoints) reconnect lazily in their own process.
        state = self.__dict__.copy()
        state["_conn"] = None
        state["_pid"] = None
        return state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "DiskCache(%r)" % str(self.directory)


class PersistentCachedEvaluator(CachedEvaluator):
    """Two-level evaluation cache: in-memory L1 over a shared disk L2.

    Lookups fall through in order — L1 dictionary, :class:`DiskCache`, real
    evaluation by the inner evaluator — and fresh results are written back to
    both levels.  The disk level is what outlives the process: repeated runs,
    warm-started re-solves and every worker of the serve pool pointing at the
    same cache directory short-circuit each other's work.

    Accounting, all in the evaluator's ledger: ``cache_hits`` /
    ``cache_misses`` count the L1 exactly as in
    :class:`~repro.runtime.evaluator.CachedEvaluator`, while ``disk_hits`` /
    ``disk_misses`` count how many L1 misses the disk store resolved versus
    forwarded to the inner evaluator.

    Pickling (a checkpoint, say) keeps the L1's keys, not its entries: the
    store holds every one of them.  Unpickling refills the L1 from the store
    with one batched lookup, in the original order, which is also the
    eviction order.  A key the store has lost since (``repro cache gc``) is
    dropped from the L1 and evaluated again on its next miss.

    Parameters
    ----------
    store:
        A :class:`DiskCache`, or a directory path one is created from.
    inner:
        Evaluator performing the true misses (default: serial); composes
        with :class:`~repro.runtime.evaluator.ProcessPoolEvaluator`.
    decimals, max_entries, ledger:
        As for :class:`~repro.runtime.evaluator.CachedEvaluator` (the L1).

    Example
    -------
    >>> import tempfile, numpy as np
    >>> from repro.moo.testproblems import ZDT1
    >>> directory = tempfile.mkdtemp()
    >>> first = PersistentCachedEvaluator(directory)
    >>> _ = first.evaluate_matrix(ZDT1(n_var=4), np.full((2, 4), 0.5))
    >>> second = PersistentCachedEvaluator(directory)  # fresh process, say
    >>> _ = second.evaluate_matrix(ZDT1(n_var=4), np.full((2, 4), 0.5))
    >>> (second.ledger.total_disk_hits, second.ledger.total_disk_misses)
    (1, 0)
    """

    def __init__(
        self,
        store: DiskCache | str | os.PathLike,
        inner: Evaluator | None = None,
        decimals: int = 12,
        max_entries: int | None = None,
        ledger: EvaluationLedger | None = None,
    ) -> None:
        super().__init__(
            inner=inner, decimals=decimals, max_entries=max_entries, ledger=ledger
        )
        self.store = store if isinstance(store, DiskCache) else DiskCache(store)

    def _disk_fetch(self, keys: list[bytes]) -> dict:
        """Probe the disk store for every pending key in one batched lookup."""
        return self.store.get_many(keys)

    def _disk_store(self, entries: dict) -> None:
        """Write freshly evaluated entries back to the disk store in one batch."""
        self.store.put_many(entries)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_cache"] = b"".join(self._cache)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        joined, width = state["_cache"], cachekeys.STORE_KEY_SIZE
        keys = [joined[start : start + width] for start in range(0, len(joined), width)]
        found = self.store.get_many(keys)
        self._cache = {key: found[key] for key in keys if key in found}

    def stats(self) -> dict:
        """Ledger L1 and disk hit/miss counters plus store statistics."""
        combined = super().stats()
        combined.update(
            {
                "disk_hits": self.ledger.total_disk_hits,
                "disk_misses": self.ledger.total_disk_misses,
                "disk_hit_rate": self.ledger.disk_hit_rate,
                "store": self.store.stats(),
            }
        )
        return combined

    def close(self) -> None:
        """Close the inner evaluator and the store connection."""
        super().close()
        self.store.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "PersistentCachedEvaluator(store=%r, inner=%r)" % (
            str(self.store.directory),
            self.inner,
        )
