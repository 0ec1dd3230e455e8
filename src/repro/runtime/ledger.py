"""Evaluation-budget ledger.

Objective evaluations are the currency of this library: the expensive
Calvin-cycle steady state and the Geobacter FBA dominate every run, so knowing
*where* evaluations (and seconds) were spent is the first step of any
performance work.  The :class:`EvaluationLedger` is a lightweight accounting
object threaded through the :mod:`repro.runtime` evaluators: evaluators record
raw evaluations and cache hits into it, and callers group the records into
named phases (``optimize``, ``robustness``, ...) with the
:meth:`EvaluationLedger.phase` context manager.

The ledger is picklable so that it survives checkpoint/resume round trips
together with the optimizer state it describes.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["PhaseStats", "EvaluationLedger"]


@dataclass
class PhaseStats:
    """Counters accumulated for one named phase of a run."""

    evaluations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    batches: int = 0
    wall_clock: float = 0.0
    disk_hits: int = 0
    disk_misses: int = 0

    def as_dict(self) -> dict:
        """Plain-dictionary view (used by reports and result objects)."""
        return {
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "batches": self.batches,
            "wall_clock": self.wall_clock,
            "disk_hits": self.disk_hits,
            "disk_misses": self.disk_misses,
        }

    def merge(self, other: "PhaseStats") -> None:
        """Fold ``other``'s counters into this phase (all fields add)."""
        self.evaluations += other.evaluations
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.batches += other.batches
        self.wall_clock += other.wall_clock
        self.disk_hits += other.disk_hits
        self.disk_misses += other.disk_misses


class EvaluationLedger:
    """Accumulates evaluation counts, cache statistics and wall-clock per phase.

    Records made while no phase is active land in the catch-all ``"run"``
    phase, so a bare optimizer (no designer pipeline around it) still produces
    meaningful totals.
    """

    #: Phase charged when no explicit phase is active.
    DEFAULT_PHASE = "run"

    def __init__(self) -> None:
        self.phases: dict[str, PhaseStats] = {}
        self._stack: list[str] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _current(self) -> PhaseStats:
        name = self._stack[-1] if self._stack else self.DEFAULT_PHASE
        return self.phases.setdefault(name, PhaseStats())

    def record(
        self,
        evaluations: int = 0,
        cache_hits: int = 0,
        cache_misses: int = 0,
        batches: int = 0,
        disk_hits: int = 0,
        disk_misses: int = 0,
    ) -> None:
        """Add counters to the currently active phase."""
        stats = self._current()
        stats.evaluations += int(evaluations)
        stats.cache_hits += int(cache_hits)
        stats.cache_misses += int(cache_misses)
        stats.batches += int(batches)
        stats.disk_hits += int(disk_hits)
        stats.disk_misses += int(disk_misses)

    @contextmanager
    def phase(self, name: str, only_if_idle: bool = False):
        """Group subsequent records under ``name`` and time the block.

        ``only_if_idle=True`` makes the call a no-op when a phase is already
        active, which lets optimizers provide a default phase without
        double-counting the wall clock of an enclosing pipeline phase.
        """
        if only_if_idle and self._stack:
            yield self
            return
        self._stack.append(name)
        started = time.perf_counter()
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - started
            self._stack.pop()
            self.phases.setdefault(name, PhaseStats()).wall_clock += elapsed

    def merge(self, other: "EvaluationLedger") -> "EvaluationLedger":
        """Fold another ledger's phases into this one; returns ``self``.

        Phases present in both ledgers add their counters field by field;
        phases unique to ``other`` are copied in.  This is the aggregation
        primitive for pooled workers: each worker accumulates into a private
        ledger snapshot, and the parent merges the snapshots after the batch.
        ``other`` is left untouched.

        Example
        -------
        >>> parent, worker = EvaluationLedger(), EvaluationLedger()
        >>> parent.record(evaluations=2)
        >>> worker.record(evaluations=3)
        >>> parent.merge(worker).total_evaluations
        5
        """
        for name, stats in other.phases.items():
            self.phases.setdefault(name, PhaseStats()).merge(stats)
        return self

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def total_evaluations(self) -> int:
        """Raw objective evaluations across every phase."""
        return sum(stats.evaluations for stats in self.phases.values())

    @property
    def total_cache_hits(self) -> int:
        """Memoization hits across every phase."""
        return sum(stats.cache_hits for stats in self.phases.values())

    @property
    def total_cache_misses(self) -> int:
        """Memoization misses across every phase."""
        return sum(stats.cache_misses for stats in self.phases.values())

    @property
    def cache_hit_rate(self) -> float:
        """Hits over cache lookups (0.0 when nothing went through a cache)."""
        lookups = self.total_cache_hits + self.total_cache_misses
        return self.total_cache_hits / lookups if lookups else 0.0

    @property
    def total_disk_hits(self) -> int:
        """Persistent-cache hits across every phase."""
        return sum(stats.disk_hits for stats in self.phases.values())

    @property
    def total_disk_misses(self) -> int:
        """Persistent-cache misses across every phase."""
        return sum(stats.disk_misses for stats in self.phases.values())

    @property
    def disk_hit_rate(self) -> float:
        """Disk hits over disk lookups (0.0 when no persistent cache ran)."""
        lookups = self.total_disk_hits + self.total_disk_misses
        return self.total_disk_hits / lookups if lookups else 0.0

    def as_dict(self) -> dict:
        """Nested plain-dictionary view of every phase plus totals."""
        return {
            "phases": {name: stats.as_dict() for name, stats in self.phases.items()},
            "total_evaluations": self.total_evaluations,
            "total_cache_hits": self.total_cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "total_disk_hits": self.total_disk_hits,
            "disk_hit_rate": self.disk_hit_rate,
        }

    def summary(self, timing: bool = True) -> str:
        """Human-readable table: one line per phase, totals, cache hit rate.

        This is the single renderer of ledger data;
        :func:`repro.core.report.format_ledger` delegates here.  The output is
        a pure function of the ledger's counters — phases are sorted, column
        widths fixed — so two ledgers with equal counters render identically
        regardless of insertion order or parallel interleaving.  Pass
        ``timing=False`` to omit the wall-clock column, which makes the text
        fully deterministic across machines (seeded runs always perform the
        same evaluations, but never in the same number of seconds).

        Example
        -------
        >>> ledger = EvaluationLedger()
        >>> ledger.record(evaluations=3)
        >>> print(ledger.summary(timing=False))
        phase           evaluations       hits     misses
        run                       3          0          0
        total                     3          0          0
        cache hit rate: 0.0 %
        """
        columns = ["phase", "evaluations", "hits", "misses"] + (
            ["seconds"] if timing else []
        )
        header = "%-14s %12s %10s %10s" % tuple(columns[:4])
        row = "%-14s %12d %10d %10d"
        if timing:
            header += " %10s" % columns[4]
        lines = [header]
        for name in sorted(self.phases):
            stats = self.phases[name]
            line = row % (name, stats.evaluations, stats.cache_hits, stats.cache_misses)
            if timing:
                line += " %10.3f" % stats.wall_clock
            lines.append(line)
        total = row % (
            "total",
            self.total_evaluations,
            self.total_cache_hits,
            self.total_cache_misses,
        )
        if timing:
            total += " %10s" % "-"
        lines.append(total)
        lines.append("cache hit rate: %.1f %%" % (100.0 * self.cache_hit_rate))
        # The disk line only appears when a persistent cache actually ran, so
        # the (pinned) plain-run rendering above stays byte-stable.
        if self.total_disk_hits or self.total_disk_misses:
            lines.append("disk hit rate: %.1f %%" % (100.0 * self.disk_hit_rate))
        return "\n".join(lines)

    def __getstate__(self) -> dict:
        # Checkpoints are written mid-phase; a pickled phase stack would make
        # the restored ledger believe that phase is still active and suppress
        # all timing of the resumed run.  The stack describes live context
        # managers, which cannot survive the process, so drop it.
        state = self.__dict__.copy()
        state["_stack"] = []
        return state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "EvaluationLedger(evaluations=%d, cache_hits=%d, phases=%d)" % (
            self.total_evaluations,
            self.total_cache_hits,
            len(self.phases),
        )
