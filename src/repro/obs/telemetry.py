"""Run telemetry: durable trace and timeseries artifacts of a solve run.

:class:`RunTelemetry` is a standard :class:`~repro.solve.events.Observer`
that turns the solve event stream plus the tracer instrumentation into two
files inside a run-artifact directory, next to ``manifest.json`` and
``ledger.json`` (the run's one evaluation count):

``trace.jsonl``
    One JSON object per finished span (see :mod:`repro.obs.trace`), written
    by a :class:`~repro.obs.trace.JsonlSink` the telemetry installs as the
    process-global tracer for the duration of the run.
``timeseries.csv``
    One row per generation: evaluation counts plus the convergence series
    (hypervolume, IGD against an optional reference front, front size,
    feasible fraction) computed lazily from the event's front snapshot via
    :mod:`repro.moo.metrics`.  Rows are appended as they happen, so a killed
    run keeps everything up to its last generation.

These files and the ledger are the whole record of a run; every summary
(``repro stats``, ``repro trace``) is derived from them when it is read.
A resumed run appends to both files, so one run is one record.
:func:`load_telemetry` re-hydrates a recorded directory (and its
``ledger.json``) for post-hoc analysis.

Example
-------
Record a run and read it back::

    from repro.obs import RunTelemetry, load_telemetry
    from repro.solve import solve

    with RunTelemetry("runs/demo") as telemetry:
        result = solve(problem, algorithm="nsga2", termination=50, seed=7,
                       observers=[telemetry])
    data = load_telemetry("runs/demo")
    print(len(data.spans), data.timeseries[-1]["generation"])
"""

from __future__ import annotations

import csv
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, TextIO

import numpy as np

from repro.exceptions import ConfigurationError
from repro.obs.trace import JsonlSink, Tracer, set_tracer
from repro.solve.events import (
    CheckpointEvent,
    GenerationEvent,
    MigrationEvent,
    Observer,
)

__all__ = [
    "TRACE_NAME",
    "TIMESERIES_NAME",
    "TIMESERIES_COLUMNS",
    "RunTelemetry",
    "LiveProgress",
    "TelemetryData",
    "load_telemetry",
]

#: File name of the span trace artifact.
TRACE_NAME = "trace.jsonl"
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


class RunTelemetry(Observer):
    """Solve observer recording the trace and convergence artifacts of a run.

    Parameters
    ----------
    directory:
        Run-artifact directory the two files are written into (created if
        missing).  Existing files are appended to, so a checkpoint-resumed
        run extends the record of the segment it resumes.
    convergence:
        When ``True`` (default) each generation's front snapshot is
        materialized to compute hypervolume / front size / feasible fraction.
        Set ``False`` to record counters only (no per-generation front cost).
    reference_front:
        Optional ``(n, m)`` matrix of the problem's true Pareto front; when
        given, the timeseries gains an IGD column.

    Use it as a context manager: entering installs a
    :class:`~repro.obs.trace.JsonlSink` tracer and opens the timeseries,
    exiting flushes both and restores the previous tracer — so the files are
    complete even when the solve raises.

    Usage::

        with RunTelemetry("runs/telemetry-demo") as telemetry:
            result = solve(problem, algorithm="nsga2", seed=0,
                           termination=50, observers=[telemetry])
        data = load_telemetry("runs/telemetry-demo")
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        convergence: bool = True,
        reference_front: "np.ndarray | None" = None,
    ) -> None:
        self.directory = Path(directory)
        self.convergence = bool(convergence)
        self.reference_front = (
            np.asarray(reference_front, dtype=float)
            if reference_front is not None
            else None
        )
        self._tracer: Tracer | None = None
        self._previous_tracer: Tracer | None = None
        self._timeseries_handle: TextIO | None = None
        self._writer: Any = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "RunTelemetry":
        """Prepare the directory, install the tracer, open the timeseries."""
        if self._tracer is not None:
            return self
        self.directory.mkdir(parents=True, exist_ok=True)
        self._tracer = Tracer(JsonlSink(self.directory / TRACE_NAME))
        self._previous_tracer = set_tracer(self._tracer)
        timeseries = self.directory / TIMESERIES_NAME
        fresh = not timeseries.exists() or timeseries.stat().st_size == 0
        self._timeseries_handle = open(timeseries, "a", newline="", encoding="utf-8")
        self._writer = csv.writer(self._timeseries_handle)
        if fresh:
            self._writer.writerow(TIMESERIES_COLUMNS)
            self._timeseries_handle.flush()
        return self

    def close(self) -> None:
        """Close both files and restore the previous tracer; idempotent."""
        if self._tracer is None:
            return
        self._timeseries_handle.close()
        self._timeseries_handle = None
        self._writer = None
        set_tracer(self._previous_tracer)
        self._tracer.close()
        self._tracer = None
        self._previous_tracer = None

    def __enter__(self) -> "RunTelemetry":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Observer hooks
    # ------------------------------------------------------------------
    def on_generation(self, event: GenerationEvent) -> None:
        """Append one timeseries row for the generation."""
        self.start()
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
            objectives = front.F
            row["front_size"] = len(front)
            if objectives.size:
                row["feasible_fraction"] = repr(float(np.mean(front.CV == 0.0)))
                hv = _safe_hypervolume(objectives)
                if hv is not None:
                    row["hypervolume"] = repr(hv)
                if self.reference_front is not None:
                    from repro.moo.metrics import inverted_generational_distance

                    igd = inverted_generational_distance(objectives, self.reference_front)
                    row["igd"] = repr(float(igd))
        self._writer.writerow([row[column] for column in TIMESERIES_COLUMNS])
        self._timeseries_handle.flush()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "RunTelemetry(%s)" % (self.directory,)


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
            objectives = front.F
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
    timeseries:
        ``timeseries.csv`` rows as typed dictionaries — ints for counters,
        floats for measures, ``None`` for blank cells.  Rows a resumed
        segment replayed appear once, from the resumed segment.
    ledger:
        The run's ``ledger.json`` (empty when absent): the evaluation counts
        every reader derives from.
    """

    spans: list[dict] = field(default_factory=list)
    timeseries: list[dict] = field(default_factory=list)
    ledger: dict = field(default_factory=dict)


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
    ...     _ = Path(base, "timeseries.csv").write_text("generation,evaluations\\n1,8\\n")
    ...     load_telemetry(base).timeseries
    [{'generation': 1, 'evaluations': 8}]
    """
    directory = Path(run_dir)
    trace_path = directory / TRACE_NAME
    timeseries_path = directory / TIMESERIES_NAME
    if not (trace_path.exists() or timeseries_path.exists()):
        raise FileNotFoundError(
            "%s holds no telemetry artifacts (%s or %s) — was the run "
            "recorded with telemetry enabled?"
            % (directory, TRACE_NAME, TIMESERIES_NAME)
        )
    data = TelemetryData()
    if trace_path.exists():
        with open(trace_path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    data.spans.append(json.loads(line))
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
                    header = cells  # a fresh header (merged segments)
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
