"""The job runner: one subprocess, one job, the plain ``solve()`` driver.

The coordinator executes every job as ``python -m repro.serve.runner
<job_dir>``.  Running jobs out-of-process buys the service three properties
threads cannot give it:

* **crash isolation** — an evaluation that segfaults or raises kills only
  the runner; the coordinator sees a non-zero exit and marks the job
  ``failed`` with the stderr tail as error detail;
* **real cancellation** — cancel terminates the subprocess mid-generation
  instead of waiting for cooperative checks;
* **parallel throughput** — N workers are N independent interpreters, so
  CPU-bound jobs scale without fighting one GIL.

The runner itself is deliberately thin: it re-reads the job's ``job.json``,
builds the problem and termination from the :class:`~repro.serve.jobs.JobSpec`,
and calls the existing :func:`repro.solve.solve` with a checkpoint directory
inside the job dir — which is the whole restart-recovery story, because
``solve()`` already restores the latest checkpoint bitwise.  Progress leaves
the process through two channels: an :class:`EventLogObserver` appending one
JSON line per generation/checkpoint/migration to ``events.jsonl`` (the
coordinator tails this file into the SSE stream), and the standard
:class:`~repro.obs.telemetry.RunTelemetry` artifacts when the spec asks for
them.

Example
-------
Run a stored job directory to completion (what the coordinator execs)::

    python -m repro.serve.runner <data_dir>/jobs/000001-4f9a2c
"""

from __future__ import annotations

import json
import sys
from contextlib import ExitStack, closing
from pathlib import Path
from typing import Any, Sequence, TextIO

from repro.serve.jobs import JobRecord
from repro.serve.store import CHECKPOINTS_DIR, EVENTS_NAME, RECORD_NAME
from repro.solve.events import (
    CheckpointEvent,
    GenerationEvent,
    MigrationEvent,
    Observer,
)

__all__ = ["EventLogObserver", "run_job", "main"]


class EventLogObserver(Observer):
    """Append one JSON line per solve event to a job's ``events.jsonl``.

    Each line is self-describing (``{"type": "generation", ...}``) and
    flushed immediately, so the coordinator's tail — and therefore every SSE
    subscriber — sees a generation the moment it completes, and a killed
    runner loses at most a partially written final line (which the store's
    reader skips).

    Example
    -------
    >>> import io, json
    >>> class _Event:
    ...     generation, evaluations, evaluations_delta, elapsed = 3, 24, 8, 0.5
    ...     front = []
    >>> handle = io.StringIO()
    >>> observer = EventLogObserver(handle)
    >>> observer.on_generation(_Event())
    >>> json.loads(handle.getvalue())["generation"]
    3
    """

    def __init__(self, target: "str | Path | TextIO") -> None:
        if hasattr(target, "write"):
            self._handle = target
        else:
            self._handle = open(target, "a", encoding="utf-8")

    def _emit(self, payload: dict[str, Any]) -> None:
        self._handle.write(json.dumps(payload, sort_keys=True) + "\n")
        self._handle.flush()

    def on_generation(self, event: GenerationEvent) -> None:
        """Log one generation row (progress counters + front size)."""
        self._emit(
            {
                "type": "generation",
                "generation": event.generation,
                "evaluations": event.evaluations,
                "evaluations_delta": event.evaluations_delta,
                "front_size": len(event.front),
                "elapsed": round(event.elapsed, 6),
            }
        )

    def on_migration(self, event: MigrationEvent) -> None:
        """Log one migration row (archipelago solvers)."""
        self._emit(
            {
                "type": "migration",
                "generation": event.generation,
                "evaluations": event.evaluations,
                "migrations": event.migrations,
            }
        )

    def on_checkpoint(self, event: CheckpointEvent) -> None:
        """Log one checkpoint row — the coordinator's ``checkpointed`` edge."""
        self._emit(
            {
                "type": "checkpoint",
                "generation": event.generation,
                "evaluations": event.evaluations,
                "path": event.path,
            }
        )

    def close(self) -> None:
        """Close the underlying file handle."""
        if hasattr(self._handle, "close"):
            self._handle.close()


def run_job(job_dir: "str | Path", cache_dir: "str | None" = None) -> int:
    """Execute one stored job to completion inside this process.

    Reads ``job.json``, runs :func:`repro.solve.solve` with checkpointing
    into the job directory, records the solve artifacts (front, ledger,
    manifest — plus telemetry when enabled) and returns the process exit
    code.  Raises whatever the solve raises: the ``main`` wrapper turns
    exceptions into a non-zero exit the coordinator maps to ``failed``.
    When ``cache_dir`` is given the solve runs behind the persistent
    evaluation cache stored there, shared with every other runner the
    service spawns.

    Example
    -------
    Drive a prepared job directory directly (tests do this in-process)::

        from repro.serve.jobs import JobSpec
        from repro.serve.store import JobStore

        store = JobStore("serve-data")
        record = store.create(JobSpec(problem="zdt1", generations=4))
        run_job(store.job_dir(record.id))
    """
    from repro.core.artifacts import record_solve_run
    from repro.problems import build_problem
    from repro.solve import get_solver, solve

    job_dir = Path(job_dir)
    payload = json.loads((job_dir / RECORD_NAME).read_text(encoding="utf-8"))
    record = JobRecord.from_dict(payload)
    spec = record.spec
    problem = build_problem(spec.problem)
    solver_spec = get_solver(spec.algorithm)
    with ExitStack() as stack:
        observers: list[Observer] = [
            stack.enter_context(closing(EventLogObserver(job_dir / EVENTS_NAME)))
        ]
        if spec.telemetry:
            from repro.obs import RunTelemetry

            observers.append(stack.enter_context(RunTelemetry(job_dir)))
        result = solve(
            problem,
            algorithm=solver_spec,
            seed=spec.seed,
            termination=spec.termination(),
            observers=observers,
            cache_dir=cache_dir,
            checkpoint_dir=str(job_dir / CHECKPOINTS_DIR),
            checkpoint_interval=spec.checkpoint_interval,
            **solver_spec.population_overrides(spec.population),
        )
    record_solve_run(job_dir, problem, result, parameters=spec.as_dict())
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``python -m repro.serve.runner <job_dir> [--cache-dir DIR]``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    cache_dir: "str | None" = None
    if "--cache-dir" in argv:
        index = argv.index("--cache-dir")
        if index + 1 >= len(argv):
            print("--cache-dir needs a directory argument", file=sys.stderr)
            return 2
        cache_dir = argv[index + 1]
        del argv[index : index + 2]
    if len(argv) != 1:
        print(
            "usage: python -m repro.serve.runner <job_dir> [--cache-dir DIR]",
            file=sys.stderr,
        )
        return 2
    return run_job(argv[0], cache_dir=cache_dir)


if __name__ == "__main__":  # pragma: no cover - exercised as a subprocess
    sys.exit(main())
