"""The job runner: one forked process, one job, the plain ``solve()`` driver.

The coordinator starts one long-lived **fork server**, ``python -m
repro.serve.runner <data_dir> [--cache-dir DIR]``, which imports the
runner's stack (:data:`_PRELOAD`) once and then forks one child per
job; the child calls :func:`run_job`.  Running each job in its own
process buys the service three properties threads cannot give it:

* **crash isolation** — an evaluation that segfaults or raises kills only
  its runner; the coordinator sees a non-zero exit and marks the job
  ``failed`` with the tail of the runner's ``runner.stderr`` as detail;
* **real cancellation** — cancel terminates the runner mid-generation
  instead of waiting for cooperative checks;
* **parallel throughput** — N workers are N independent processes, so
  CPU-bound jobs scale without fighting one GIL.

Forking a warm parent instead of starting a fresh interpreter per job skips
re-importing numpy and ``repro`` for every job.  The fork server speaks one
text line per message: it reads ``run <job_id>`` and ``kill <job_id>`` on
stdin and writes ``exited <job_id> <code>`` on stdout, where ``<code>`` is
:func:`os.waitstatus_to_exitcode` (negative for a signal).  It is
Linux-only: it waits on its children through :func:`os.pidfd_open`.

The runner itself is deliberately thin: it re-reads the job's ``job.json``
and runs its :class:`~repro.solve.request.SolveRequest` — the same code
path ``repro solve`` uses — with a checkpoint directory inside the job dir,
which is the whole restart-recovery story, because ``solve()`` already
restores the latest checkpoint bitwise.  Progress leaves the process
through two channels: an :class:`EventLogObserver` appending one
JSON line per generation/checkpoint/migration to ``events.jsonl`` (the
coordinator tails this file into the SSE stream), and the standard
:class:`~repro.obs.telemetry.RunTelemetry` artifacts when the spec asks for
them.

Example
-------
Start a fork server by hand and run one stored job (what the coordinator
does)::

    $ python -m repro.serve.runner serve-data
    run 000001-4f9a2c
    exited 000001-4f9a2c 0
"""

from __future__ import annotations

import importlib
import json
import os
import selectors
import signal
import sys
import traceback
import warnings
from contextlib import ExitStack, closing
from pathlib import Path
from typing import Any, NoReturn, Sequence, TextIO

from repro.serve.jobs import JobRecord
from repro.serve.store import CHECKPOINTS_DIR, EVENTS_NAME, RECORD_NAME, STDERR_NAME
from repro.solve.events import (
    CheckpointEvent,
    GenerationEvent,
    MigrationEvent,
    Observer,
)

__all__ = ["EventLogObserver", "run_job", "serve_forks", "main"]

#: Modules the fork server imports before its first fork: numpy, the solve
#: driver, telemetry, the disk cache and front metrics every job uses, and
#: the problems a served job most often builds.  Not scipy, ``repro.fba`` or
#: ``repro.geobacter``: a geobacter job imports them in its own child, and a
#: photosynthesis job stays scipy-free.
_PRELOAD = (
    "numpy.random",
    "repro.core.artifacts",
    "repro.solve",
    "repro.obs.telemetry",
    "repro.runtime.diskcache",
    "repro.moo.metrics",
    "repro.problems.builtins",
    "repro.moo.testproblems",
    "repro.photosynthesis.problem",
    "repro.photosynthesis.conditions",
)


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
    code.  Raises whatever the solve raises: the forked child turns
    exceptions into exit code 1, which the coordinator maps to ``failed``.
    When ``cache_dir`` is given the solve runs behind the persistent
    evaluation cache stored there, shared with every other runner the
    service forks.

    Example
    -------
    Drive a prepared job directory directly (tests do this in-process)::

        from repro.serve.store import JobStore
        from repro.solve import SolveRequest

        store = JobStore("serve-data")
        record = store.create(SolveRequest(problem="zdt1", generations=4))
        run_job(store.job_dir(record.id))
    """
    from repro.core.artifacts import record_solve_run

    job_dir = Path(job_dir)
    payload = json.loads((job_dir / RECORD_NAME).read_text(encoding="utf-8"))
    request = JobRecord.from_dict(payload).spec
    with ExitStack() as stack:
        observers: list[Observer] = [
            stack.enter_context(closing(EventLogObserver(job_dir / EVENTS_NAME)))
        ]
        if request.telemetry:
            from repro.obs import RunTelemetry

            observers.append(stack.enter_context(RunTelemetry(job_dir)))
        problem, result = request.run(
            observers=observers,
            checkpoint_dir=str(job_dir / CHECKPOINTS_DIR),
            cache_dir=cache_dir,
        )
    record_solve_run(job_dir, problem, result, parameters=request.as_dict())
    return 0


def _preload() -> None:
    """Import :data:`_PRELOAD`, take the ``float_power`` verdict and the git revision.

    The fork server runs this once before its first fork, so every runner
    inherits all three instead of importing, probing and running
    ``git rev-parse`` again per job.
    """
    for name in _PRELOAD:
        importlib.import_module(name)
    from repro.core.artifacts import _git_revision
    from repro.moo.operators import float_power_guard

    float_power_guard()
    _git_revision()


def serve_forks(data_dir: "str | Path", cache_dir: "str | None" = None) -> int:
    """Run the fork server: preload, then fork one :func:`run_job` child per job.

    Reads ``run <job_id>`` / ``kill <job_id>`` lines on stdin and answers
    ``exited <job_id> <code>`` on stdout once it has reaped the child.  A
    ``run`` is accepted only for a directory directly under
    ``<data_dir>/jobs``; anything else is answered with code 2.  ``kill``
    SIGTERMs a child that has not been reaped yet, so a recycled pid is
    never hit.  On EOF on stdin (the coordinator stopped or died) every
    remaining child is SIGTERMed and reaped, and the server exits 0.
    """
    _preload()
    # numpy's OpenBLAS pool is the only other thread here; OpenBLAS's own
    # atfork handlers make forking it safe, as for ProcessPoolEvaluator.
    warnings.filterwarnings(
        "ignore", r"This process .*is multi-threaded", DeprecationWarning
    )
    jobs_dir = Path(data_dir) / "jobs"
    children: dict[str, tuple[int, int]] = {}  # job id -> (pid, pidfd)
    selector = selectors.DefaultSelector()
    selector.register(0, selectors.EVENT_READ)
    pending = b""

    def reply(job_id: str, code: int) -> None:
        sys.stdout.write("exited %s %d\n" % (job_id, code))
        sys.stdout.flush()

    while True:
        for key, _ in selector.select():
            if key.data is not None:  # a child's pidfd: it has exited
                pid, pidfd = children.pop(key.data)
                selector.unregister(pidfd)
                os.close(pidfd)
                reply(key.data, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
                continue
            chunk = os.read(0, 4096)
            if not chunk:
                for pid, _ in children.values():
                    os.kill(pid, signal.SIGTERM)
                for pid, _ in children.values():
                    os.waitpid(pid, 0)
                return 0
            *lines, pending = (pending + chunk).split(b"\n")
            for line in lines:
                command, _, job_id = line.decode("utf-8", "replace").strip().partition(" ")
                if command == "kill" and job_id in children:
                    os.kill(children[job_id][0], signal.SIGTERM)
                elif command == "run":
                    if job_id not in os.listdir(jobs_dir) or not (jobs_dir / job_id).is_dir():
                        print("fork server: no job directory %r" % job_id, file=sys.stderr)
                        reply(job_id, 2)
                        continue
                    pid = os.fork()
                    if pid == 0:
                        selector.close()
                        for _, pidfd in children.values():
                            os.close(pidfd)
                        _run_child(jobs_dir / job_id, cache_dir)
                    pidfd = os.pidfd_open(pid)
                    children[job_id] = (pid, pidfd)
                    selector.register(pidfd, selectors.EVENT_READ, job_id)


def _run_child(job_dir: Path, cache_dir: "str | None") -> NoReturn:
    """The forked runner: stdio to ``/dev/null`` and ``runner.stderr``, then :func:`run_job`."""
    code = 1
    try:
        null = os.open(os.devnull, os.O_RDWR)
        stderr = os.open(job_dir / STDERR_NAME, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(null, 0)
        os.dup2(null, 1)
        os.dup2(stderr, 2)
        os.close(null)
        os.close(stderr)
        code = run_job(job_dir, cache_dir=cache_dir)
    except BaseException:
        traceback.print_exc()
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``python -m repro.serve.runner <data_dir> [--cache-dir DIR]``."""
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
            "usage: python -m repro.serve.runner <data_dir> [--cache-dir DIR]",
            file=sys.stderr,
        )
        return 2
    return serve_forks(argv[0], cache_dir=cache_dir)


if __name__ == "__main__":  # pragma: no cover - exercised as a subprocess
    sys.exit(main())
