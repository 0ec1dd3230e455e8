"""Run telemetry: durable trace/metrics/timeseries artifacts of a solve run.

:class:`RunTelemetry` is a standard :class:`~repro.solve.events.Observer`
that turns the solve event stream plus the tracer/metrics instrumentation
into three files inside a run-artifact directory, next to ``manifest.json``
and ``ledger.json`` (the run's one evaluation count):

``trace.jsonl``
    One JSON object per finished span (see :mod:`repro.obs.trace`), written
    by a :class:`~repro.obs.trace.JsonlSink` the telemetry installs as the
    process-global tracer for the duration of the run.
``timeseries.csv``
    One row per generation: counters plus the convergence series
    (hypervolume, IGD against an optional reference front, front size,
    feasible fraction) computed lazily from the event's front snapshot via
    :mod:`repro.moo.metrics`.  Rows are appended as they happen, so a killed
    run keeps everything up to its last generation.
``metrics.json``
    Snapshot of the run's :class:`~repro.obs.metrics.MetricsRegistry`
    (counters, gauges, histograms), written by :meth:`RunTelemetry.finalize`.

Resumed runs either *append* to the three files (the default — one run, one
trace) or *rotate* them (``trace-1.jsonl``, ...) so each segment stands
alone.  :func:`load_telemetry` re-hydrates a recorded directory (and its
``ledger.json``) for post-hoc analysis; ``repro trace`` and ``repro stats``
are CLI renderers over it.

Example
-------
Record a run and read it back::

    from repro.obs import RunTelemetry, load_telemetry
    from repro.solve import solve

    telemetry = RunTelemetry("runs/demo")
    with telemetry:
        result = solve(problem, algorithm="nsga2", termination=50, seed=7,
                       observers=[telemetry])
        telemetry.finalize(result)
    data = load_telemetry("runs/demo")
    print(len(data.spans), data.metrics["counters"]["solve.generations"])
"""

from __future__ import annotations

import csv
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, TextIO

import numpy as np

from repro.exceptions import ConfigurationError
from repro.obs.metrics import MetricsRegistry, registry_from_snapshot, set_metrics
from repro.obs.trace import JsonlSink, Tracer, set_tracer
from repro.solve.events import (
    CheckpointEvent,
    GenerationEvent,
    MigrationEvent,
    Observer,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.solve.result import SolveResult

__all__ = [
    "TRACE_NAME",
    "METRICS_NAME",
    "TIMESERIES_NAME",
    "TIMESERIES_COLUMNS",
    "RunTelemetry",
    "LiveProgress",
    "TelemetryData",
    "load_telemetry",
]

#: File name of the span trace artifact.
TRACE_NAME = "trace.jsonl"
#: File name of the metrics-snapshot artifact.
METRICS_NAME = "metrics.json"
#: File name of the per-generation convergence series artifact.
TIMESERIES_NAME = "timeseries.csv"
#: File name of the evaluation ledger (written by
#: :func:`repro.core.artifacts.record_solve_run`, read back here).
_LEDGER_NAME = "ledger.json"

#: Column order of ``timeseries.csv``.
TIMESERIES_COLUMNS = (
    "generation",
    "evaluations",
    "evaluations_delta",
    "cache_hits_delta",
    "elapsed",
    "front_size",
    "feasible_fraction",
    "hypervolume",
    "igd",
)

_INT_COLUMNS = frozenset(
    ("generation", "evaluations", "evaluations_delta", "cache_hits_delta", "front_size")
)


def _rotate(path: Path) -> None:
    """Move ``path`` aside to the first free ``<stem>-<n><suffix>`` slot."""
    if not path.exists():
        return
    index = 1
    while True:
        candidate = path.with_name("%s-%d%s" % (path.stem, index, path.suffix))
        if not candidate.exists():
            path.rename(candidate)
            return
        index += 1


class RunTelemetry(Observer):
    """Solve observer recording trace, metrics and convergence artifacts.

    Parameters
    ----------
    directory:
        Run-artifact directory the three files are written into (created if
        missing).
    resume:
        ``"append"`` (default) extends existing telemetry files — the mode
        for checkpoint-resumed runs, producing one continuous record —
        while ``"rotate"`` moves them aside (``trace-1.jsonl``, ...) so the
        new segment starts fresh.
    convergence:
        When ``True`` (default) each generation's front snapshot is
        materialized to compute hypervolume / front size / feasible fraction.
        Set ``False`` to record counters only (no per-generation front cost).
    reference_front:
        Optional ``(n, m)`` matrix of the problem's true Pareto front; when
        given, the timeseries gains an IGD column.
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` to record into;
        a fresh one is created by default.
    trace:
        When ``True`` (default) a :class:`~repro.obs.trace.JsonlSink` tracer
        is installed globally between :meth:`start` and :meth:`close`, so the
        library's instrumentation points stream into ``trace.jsonl``.

    The observer is also a context manager: entering calls :meth:`start`
    (rotation, tracer install, timeseries header), exiting calls
    :meth:`close` (final ``metrics.json``, tracer restore) — so telemetry
    files are complete even when the solve raises.

    Usage::

        telemetry = RunTelemetry("runs/telemetry-demo")
        with telemetry:
            result = solve(problem, algorithm="nsga2", seed=0,
                           termination=50, observers=[telemetry])
            telemetry.finalize(result)   # run summary gauges
        data = load_telemetry("runs/telemetry-demo")
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        resume: str = "append",
        convergence: bool = True,
        reference_front: "np.ndarray | None" = None,
        registry: MetricsRegistry | None = None,
        trace: bool = True,
    ) -> None:
        if resume not in ("append", "rotate"):
            raise ConfigurationError(
                "resume must be 'append' or 'rotate', not %r" % (resume,)
            )
        self.directory = Path(directory)
        self.resume = resume
        self.convergence = bool(convergence)
        self.reference_front = (
            np.asarray(reference_front, dtype=float)
            if reference_front is not None
            else None
        )
        self.registry = registry if registry is not None else MetricsRegistry()
        self._trace_enabled = bool(trace)
        self._started = False
        self._closed = False
        self._finalized = False
        self._previous_tracer: Tracer | None = None
        self._tracer: Tracer | None = None
        self._previous_metrics: MetricsRegistry | None = None
        self._timeseries_handle: TextIO | None = None
        self._writer: Any = None
        self._last_elapsed = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "RunTelemetry":
        """Prepare the directory, install the tracer, open the timeseries."""
        if self._started:
            return self
        self._started = True
        self._closed = False
        self.directory.mkdir(parents=True, exist_ok=True)
        if self.resume == "rotate":
            for name in (TRACE_NAME, METRICS_NAME, TIMESERIES_NAME):
                _rotate(self.directory / name)
        if self._trace_enabled:
            self._tracer = Tracer(JsonlSink(self.directory / TRACE_NAME))
            self._previous_tracer = set_tracer(self._tracer)
        # Install the run's registry globally so solve.observer_errors, the
        # one metric recorded outside this observer, lands in metrics.json.
        self._previous_metrics = set_metrics(self.registry)
        timeseries = self.directory / TIMESERIES_NAME
        fresh = not timeseries.exists() or timeseries.stat().st_size == 0
        self._timeseries_handle = open(timeseries, "a", newline="", encoding="utf-8")
        self._writer = csv.writer(self._timeseries_handle)
        if fresh:
            self._writer.writerow(TIMESERIES_COLUMNS)
            self._timeseries_handle.flush()
        return self

    def finalize(self, result: "SolveResult | None" = None) -> dict:
        """Write ``metrics.json`` (merging prior segments in append mode).

        When ``result`` is given, the run-summary gauges (``run.generations``,
        ``run.evaluations_per_second``, ...) are set first.  Returns the
        written snapshot dictionary.
        """
        self._finalized = True
        if result is not None:
            self.registry.gauge("run.generations").set(float(result.generations))
            self.registry.gauge("run.evaluations").set(float(result.evaluations))
            self.registry.gauge("run.migrations").set(float(result.migrations))
            if self._last_elapsed > 0:
                self.registry.gauge("run.evaluations_per_second").set(
                    float(result.evaluations) / self._last_elapsed
                )
        merged = MetricsRegistry()
        metrics_path = self.directory / METRICS_NAME
        if self.resume == "append" and metrics_path.exists():
            merged.merge(json.loads(metrics_path.read_text(encoding="utf-8")))
        merged.merge(self.registry)
        snapshot = merged.snapshot()
        metrics_path.write_text(
            json.dumps(snapshot, sort_keys=True, indent=2, default=float) + "\n",
            encoding="utf-8",
        )
        return snapshot

    def close(self) -> None:
        """Flush files, restore the previous tracer; idempotent.

        Writes ``metrics.json`` if :meth:`finalize` was never called, so an
        interrupted run still leaves a readable (if gauge-less) snapshot.
        """
        if self._closed or not self._started:
            self._closed = True
            return
        self._closed = True
        if not self._finalized:
            self.finalize()
        if self._timeseries_handle is not None:
            self._timeseries_handle.close()
            self._timeseries_handle = None
            self._writer = None
        if self._trace_enabled:
            set_tracer(self._previous_tracer)
            if self._tracer is not None:
                self._tracer.close()
            self._tracer = None
            self._previous_tracer = None
        if self._previous_metrics is not None:
            set_metrics(self._previous_metrics)
            self._previous_metrics = None
        self._started = False

    def __enter__(self) -> "RunTelemetry":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Observer hooks
    # ------------------------------------------------------------------
    def on_generation(self, event: GenerationEvent) -> None:
        """Record counters and append one timeseries row for the generation."""
        if not self._started:
            self.start()
        registry = self.registry
        registry.counter("solve.generations").inc(1)
        self._last_elapsed = event.elapsed
        row: dict[str, Any] = {
            "generation": event.generation,
            "evaluations": event.evaluations,
            "evaluations_delta": event.evaluations_delta,
            "cache_hits_delta": event.cache_hits_delta,
            "elapsed": "%.6f" % event.elapsed,
            "front_size": "",
            "feasible_fraction": "",
            "hypervolume": "",
            "igd": "",
        }
        if self.convergence:
            front = event.front
            objectives = front.objective_matrix()
            row["front_size"] = len(front)
            registry.gauge("solve.front_size").set(float(len(front)))
            if objectives.size:
                violations = front.CV
                feasible = float(np.mean(violations == 0.0))
                row["feasible_fraction"] = repr(feasible)
                registry.gauge("solve.feasible_fraction").set(feasible)
                hv = _safe_hypervolume(objectives)
                if hv is not None:
                    row["hypervolume"] = repr(hv)
                    registry.gauge("solve.hypervolume").set(hv)
                if self.reference_front is not None:
                    from repro.moo.metrics import inverted_generational_distance

                    igd = float(
                        inverted_generational_distance(objectives, self.reference_front)
                    )
                    row["igd"] = repr(igd)
                    registry.gauge("solve.igd").set(igd)
        if self._writer is not None:
            self._writer.writerow([row[column] for column in TIMESERIES_COLUMNS])
            self._timeseries_handle.flush()

    def on_migration(self, event: MigrationEvent) -> None:
        """Count one migration exchange."""
        self.registry.counter("solve.migrations").inc(1)

    def on_checkpoint(self, event: CheckpointEvent) -> None:
        """Count one checkpoint write."""
        self.registry.counter("solve.checkpoints").inc(1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "RunTelemetry(%s, resume=%r)" % (self.directory, self.resume)


def _safe_hypervolume(objectives: np.ndarray) -> float | None:
    """Front hypervolume with the self-referenced default reference point.

    Returns ``None`` for degenerate fronts the indicator cannot handle; the
    timeseries cell stays blank rather than aborting the run.
    """
    from repro.moo.metrics import hypervolume

    try:
        return float(hypervolume(objectives))
    except Exception:  # pragma: no cover - defensive: degenerate fronts
        return None


class LiveProgress(Observer):
    """Render one live progress line per generation (``repro solve --live``).

    Lines carry the generation index, evaluation totals and rate, the front
    size and the running hypervolume — all derived from the same event stream
    telemetry records, so the live view and the durable artifacts agree.

    Parameters
    ----------
    stream:
        Output stream (default: ``sys.stdout``).
    every:
        Only render every N-th generation (default 1: every generation).
    hypervolume:
        Whether to compute and show the front hypervolume (costs a front
        materialization per rendered line).
    """

    def __init__(
        self,
        stream: TextIO | None = None,
        every: int = 1,
        hypervolume: bool = True,
    ) -> None:
        if every < 1:
            raise ConfigurationError("every must be at least 1")
        self.stream = stream if stream is not None else sys.stdout
        self.every = int(every)
        self.hypervolume = bool(hypervolume)
        self._last_elapsed = 0.0

    def on_generation(self, event: GenerationEvent) -> None:
        """Print the progress line for this generation (subject to ``every``)."""
        window = event.elapsed - self._last_elapsed
        self._last_elapsed = event.elapsed
        if event.generation % self.every != 0:
            return
        rate = event.evaluations_delta / window if window > 0 else 0.0
        line = "gen %5d  evals %8d  (+%d, %.1f evals/s)" % (
            event.generation,
            event.evaluations,
            event.evaluations_delta,
            rate,
        )
        front = event.front
        line += "  front %4d" % len(front)
        if self.hypervolume:
            objectives = front.objective_matrix()
            if objectives.size:
                hv = _safe_hypervolume(objectives)
                if hv is not None:
                    line += "  hv %.6f" % hv
        print(line, file=self.stream)

    def on_migration(self, event: MigrationEvent) -> None:
        """Print a migration marker line."""
        print(
            "gen %5d  migration #%d" % (event.generation, event.migrations),
            file=self.stream,
        )

    def on_checkpoint(self, event: CheckpointEvent) -> None:
        """Print a checkpoint marker line."""
        print(
            "gen %5d  checkpoint %s" % (event.generation, event.path),
            file=self.stream,
        )


# ---------------------------------------------------------------------------
# Re-hydration
# ---------------------------------------------------------------------------
@dataclass
class TelemetryData:
    """Loaded telemetry of one recorded run directory.

    Attributes
    ----------
    spans:
        Span records from ``trace.jsonl`` (empty when absent).
    metrics:
        ``metrics.json`` snapshot dictionary (empty when absent).
    timeseries:
        ``timeseries.csv`` rows as typed dictionaries — ints for counters,
        floats for measures, ``None`` for blank cells.  Rows a resumed
        segment replayed appear once, from the resumed segment.
    ledger:
        The run's ``ledger.json`` (empty when absent): the evaluation counts
        every reader derives from.
    """

    spans: list[dict] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    timeseries: list[dict] = field(default_factory=list)
    ledger: dict = field(default_factory=dict)

    @property
    def registry(self) -> MetricsRegistry:
        """The metrics snapshot re-hydrated into a mergeable registry."""
        return registry_from_snapshot(self.metrics)


def _parse_cell(column: str, cell: str) -> Any:
    if cell == "":
        return None
    if column in _INT_COLUMNS:
        return int(cell)
    return float(cell)


def load_telemetry(run_dir: str | os.PathLike) -> TelemetryData:
    """Load the telemetry artifacts recorded in ``run_dir``.

    Missing files yield empty sections rather than raising, so partially
    recorded (killed) runs still load; a directory with *no* telemetry at all
    raises :class:`FileNotFoundError`.

    Example
    -------
    >>> import tempfile
    >>> with tempfile.TemporaryDirectory() as base:
    ...     _ = Path(base, "metrics.json").write_text('{"counters": {"n": 1}}')
    ...     load_telemetry(base).metrics["counters"]
    {'n': 1}
    """
    directory = Path(run_dir)
    trace_path = directory / TRACE_NAME
    metrics_path = directory / METRICS_NAME
    timeseries_path = directory / TIMESERIES_NAME
    if not any(path.exists() for path in (trace_path, metrics_path, timeseries_path)):
        raise FileNotFoundError(
            "%s holds no telemetry artifacts (%s, %s or %s) — was the run "
            "recorded with telemetry enabled?"
            % (directory, TRACE_NAME, METRICS_NAME, TIMESERIES_NAME)
        )
    data = TelemetryData()
    if trace_path.exists():
        with open(trace_path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    data.spans.append(json.loads(line))
    if metrics_path.exists():
        data.metrics = json.loads(metrics_path.read_text(encoding="utf-8"))
    ledger_path = directory / _LEDGER_NAME
    if ledger_path.exists():
        data.ledger = json.loads(ledger_path.read_text(encoding="utf-8"))
    if timeseries_path.exists():
        with open(timeseries_path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header: list[str] | None = None
            for cells in reader:
                if not cells:
                    continue
                if cells[0] == "generation":
                    header = cells  # a fresh header (rotated/merged segments)
                    continue
                columns = header or list(TIMESERIES_COLUMNS)
                row = {
                    column: _parse_cell(column, cell)
                    for column, cell in zip(columns, cells)
                }
                # A resumed segment replays the generations after its
                # checkpoint; its rows supersede the interrupted segment's.
                while (
                    data.timeseries
                    and data.timeseries[-1]["generation"] >= row["generation"]
                ):
                    data.timeseries.pop()
                data.timeseries.append(row)
    return data
