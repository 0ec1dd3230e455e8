"""The job runner: warm forked workers, one job at a time, the plain ``solve()`` driver.

The coordinator starts one long-lived **fork server**, ``python -m
repro.serve.runner <data_dir> [--cache-dir DIR]``, which imports the
runner's stack (:data:`_PRELOAD`) once and then forks **workers**; a
worker calls :func:`run_job` for one job after another.  The server never
runs a job itself, so every worker is forked from the same state, however
many jobs other workers have run.  Running jobs in worker processes buys
the service three properties threads cannot give it:

* **crash isolation** — an evaluation that segfaults or raises ends only
  its worker; the coordinator sees a non-zero exit and marks the job
  ``failed`` with the tail of the job's ``runner.stderr`` as detail, and
  the next job gets a freshly forked worker;
* **real cancellation** — cancel terminates the worker mid-generation
  instead of waiting for cooperative checks;
* **parallel throughput** — N busy workers are N independent processes,
  so CPU-bound jobs scale without fighting one GIL.

A worker is reused only after a job that returned 0: it is then already
warm (its pages are touched, its lazy imports done), which a freshly
forked child is not, and :func:`run_job` leaves no process state behind
for the next job.  The fork server forks a worker only when none is idle,
so the pool grows to the coordinator's concurrent jobs and no further.
It speaks one text line per message: it reads ``run <job_id>`` and ``kill
<job_id>`` on stdin and writes ``exited <job_id> <code>`` on stdout, where
``<code>`` is 0 for a job that returned 0 and otherwise the worker's
:func:`os.waitstatus_to_exitcode` (negative for a signal).  It is
Linux-only: it waits on its workers through :func:`os.pidfd_open`.

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
from contextlib import ExitStack, closing, suppress
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
    code.  Raises whatever the solve raises: the worker prints the
    traceback and exits with code 1, which the coordinator maps to
    ``failed``.  When ``cache_dir`` is given the solve runs behind the
    persistent evaluation cache stored there, shared with every other
    worker the service forks.  It leaves no process state behind (tracer,
    warnings filters, numpy error state, open files, working directory,
    cache connection), so a worker runs its next job as a fresh one would.

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


class _Worker:
    """The fork server's end of one warm worker: its pid, pidfd and two pipes.

    The server writes job ids to ``inbox``; the worker writes ``0`` to
    ``outbox`` (read non-blocking here) after each job that returned 0.
    """

    def __init__(self, pid: int, inbox: int, outbox: int) -> None:
        self.pid = pid
        self.pidfd = os.pidfd_open(pid)
        self.inbox = inbox
        self.outbox = outbox
        #: The job the worker runs, ``None`` while it is idle.
        self.job_id: "str | None" = None
        #: Sent SIGTERM: the worker never gets another job.
        self.doomed = False

    def report(self) -> "bytes | None":
        """What the worker wrote to its outbox: ``b""`` at EOF, ``None`` for nothing yet."""
        try:
            return os.read(self.outbox, 64)
        except BlockingIOError:
            return None

    def close(self) -> None:
        """Close this process's ends of the worker's pipes and its pidfd."""
        for fd in (self.pidfd, self.inbox, self.outbox):
            os.close(fd)


def serve_forks(data_dir: "str | Path", cache_dir: "str | None" = None) -> int:
    """Run the fork server: preload, then run each job in a warm forked worker.

    Reads ``run <job_id>`` / ``kill <job_id>`` lines on stdin and answers
    ``exited <job_id> <code>`` on stdout once the job is over.  A ``run``
    is accepted only for a directory directly under ``<data_dir>/jobs``;
    anything else is answered with code 2.  It goes to the worker that went
    idle last, and a worker is forked only when none is idle, so the pool
    never outgrows the jobs the coordinator runs at once.  A job that
    returns 0 leaves its worker idle for the next one; a job that raises,
    dies of a signal or is killed ends its worker, and the server answers
    with the worker's exit code once it has reaped it.  ``kill`` SIGTERMs
    the worker of a job still running, so an idle worker or a recycled pid
    is never hit.  On EOF on stdin (the coordinator stopped or died) every
    worker, busy or idle, is SIGTERMed and reaped, and the server exits 0.
    """
    _preload()
    # numpy's OpenBLAS pool is the only other thread here; OpenBLAS's own
    # atfork handlers make forking it safe, as for ProcessPoolEvaluator.
    warnings.filterwarnings(
        "ignore", r"This process .*is multi-threaded", DeprecationWarning
    )
    jobs_dir = Path(data_dir) / "jobs"
    workers: dict[int, _Worker] = {}  # pid -> every worker not reaped yet
    idle: list[_Worker] = []  # the most recently idle last
    busy: dict[str, _Worker] = {}  # job id -> its worker
    selector = selectors.DefaultSelector()
    selector.register(0, selectors.EVENT_READ)
    pending = b""

    def reply(job_id: str, code: int) -> None:
        sys.stdout.write("exited %s %d\n" % (job_id, code))
        sys.stdout.flush()

    def fork() -> _Worker:
        inbox_read, inbox_write = os.pipe()
        outbox_read, outbox_write = os.pipe()
        pid = os.fork()
        if pid == 0:
            selector.close()
            for worker in workers.values():
                worker.close()
            os.close(inbox_write)
            os.close(outbox_read)
            _work(inbox_read, outbox_write, jobs_dir, cache_dir)
        os.close(inbox_read)
        os.close(outbox_write)
        os.set_blocking(outbox_read, False)
        worker = workers[pid] = _Worker(pid, inbox_write, outbox_read)
        selector.register(worker.pidfd, selectors.EVENT_READ, (worker, True))
        selector.register(worker.outbox, selectors.EVENT_READ, (worker, False))
        return worker

    def finish(worker: _Worker, code: int) -> None:
        del busy[worker.job_id]
        reply(worker.job_id, code)
        worker.job_id = None
        if code == 0 and not worker.doomed:
            idle.append(worker)

    def reap(worker: _Worker) -> None:
        del workers[worker.pid]
        worker.doomed = True
        selector.unregister(worker.pidfd)
        if worker.outbox in selector.get_map():
            selector.unregister(worker.outbox)
        code = os.waitstatus_to_exitcode(os.waitpid(worker.pid, 0)[1])
        if worker.job_id is not None:
            # A worker killed right after its report still finished its job.
            finish(worker, 0 if worker.report() else code)
        if worker in idle:
            idle.remove(worker)
        worker.close()

    while True:
        for key, _ in selector.select():
            if key.data is not None:
                worker, exited = key.data
                if workers.get(worker.pid) is not worker:
                    continue  # reaped earlier in this batch
                if exited:
                    reap(worker)
                    continue
                report = worker.report()
                if report:
                    finish(worker, 0)
                elif report == b"":  # the worker is exiting; its pidfd tells
                    selector.unregister(worker.outbox)
                continue
            chunk = os.read(0, 4096)
            if not chunk:
                for worker in workers.values():
                    os.kill(worker.pid, signal.SIGTERM)
                for worker in workers.values():
                    os.waitpid(worker.pid, 0)
                return 0
            *lines, pending = (pending + chunk).split(b"\n")
            for line in lines:
                command, _, job_id = line.decode("utf-8", "replace").strip().partition(" ")
                if command == "kill" and job_id in busy:
                    busy[job_id].doomed = True
                    os.kill(busy[job_id].pid, signal.SIGTERM)
                elif command == "run":
                    if job_id not in os.listdir(jobs_dir) or not (jobs_dir / job_id).is_dir():
                        print("fork server: no job directory %r" % job_id, file=sys.stderr)
                        reply(job_id, 2)
                        continue
                    worker = idle.pop() if idle else fork()
                    worker.job_id = job_id
                    busy[job_id] = worker
                    # A worker that died since its last job fails this one
                    # through its pidfd instead.
                    with suppress(BrokenPipeError):
                        os.write(worker.inbox, job_id.encode("utf-8") + b"\n")


def _work(inbox: int, outbox: int, jobs_dir: Path, cache_dir: "str | None") -> NoReturn:
    """A warm worker: run each job id read from ``inbox``, report ``0`` on ``outbox``.

    Stdin and stdout are ``/dev/null``; stderr is the running job's
    ``runner.stderr`` and ``/dev/null`` between jobs.  The first job that
    does not return 0 ends the worker with that code, and one that raises
    prints its traceback to its ``runner.stderr`` and ends it with code 1.
    EOF on ``inbox`` (the fork server exited) ends the worker with code 0.
    """
    code = 1
    try:
        null = os.open(os.devnull, os.O_RDWR)
        os.dup2(null, 0)
        os.dup2(null, 1)
        for line in open(inbox, encoding="utf-8"):
            job_dir = jobs_dir / line.strip()
            stderr = os.open(job_dir / STDERR_NAME, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            os.dup2(stderr, 2)
            os.close(stderr)
            returned = run_job(job_dir, cache_dir=cache_dir)
            if returned != 0:
                code = returned
                break
            sys.stderr.flush()
            os.dup2(null, 2)
            os.write(outbox, b"0\n")
        else:
            code = 0
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
