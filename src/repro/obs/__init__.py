"""Observability: tracing and run telemetry for the solve stack.

Two layers, each usable alone:

* :mod:`repro.obs.trace` — span-based tracing with pluggable sinks (null by
  default, in-memory, JSONL file); the library's instrumentation points
  (evaluator batches, kernel calls, generation steps, checkpoint writes,
  migration exchanges, observer errors) emit through the process-global
  tracer.
* :mod:`repro.obs.telemetry` — :class:`RunTelemetry`, a standard solve
  :class:`~repro.solve.events.Observer` writing ``trace.jsonl`` and
  ``timeseries.csv`` into a run-artifact directory, plus
  :func:`load_telemetry` for post-hoc analysis and :class:`LiveProgress`
  behind ``repro solve --live``.

Counts are read from those records, never kept beside them: evaluations
from the run's ``ledger.json``, generations and convergence from the
timeseries, migrations, checkpoints and observer errors from span counts.

Example
-------
Record and inspect a solve run::

    from repro.obs import RunTelemetry, load_telemetry
    from repro.solve import solve

    with RunTelemetry("runs/demo") as telemetry:
        result = solve(problem, algorithm="nsga2", termination=50, seed=7,
                       observers=[telemetry])
    print(load_telemetry("runs/demo").timeseries[-1])
"""

from repro.obs.trace import (
    InMemorySink,
    JsonlSink,
    NullSink,
    Span,
    Tracer,
    TraceSink,
    get_tracer,
    set_tracer,
    use_tracer,
)
# The telemetry layer sits *above* repro.solve (it observes solve events),
# while trace sits *below* repro.runtime (the evaluators emit trace
# spans).  Loading telemetry lazily keeps `repro.obs` importable from the
# low-level instrumentation points without creating an import cycle.
_TELEMETRY_NAMES = (
    "TRACE_NAME",
    "TIMESERIES_NAME",
    "TIMESERIES_COLUMNS",
    "RunTelemetry",
    "LiveProgress",
    "TelemetryData",
    "load_telemetry",
)


def __getattr__(name: str):
    """Resolve the telemetry names on first access (PEP 562 lazy import)."""
    if name in _TELEMETRY_NAMES:
        from repro.obs import telemetry

        return getattr(telemetry, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__all__ = [
    # trace
    "Span",
    "TraceSink",
    "NullSink",
    "InMemorySink",
    "JsonlSink",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    # telemetry
    "TRACE_NAME",
    "TIMESERIES_NAME",
    "TIMESERIES_COLUMNS",
    "RunTelemetry",
    "LiveProgress",
    "TelemetryData",
    "load_telemetry",
]
