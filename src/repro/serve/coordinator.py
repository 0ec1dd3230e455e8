"""The coordinator: bounded worker pool, live event fan-out, recovery.

One :class:`Coordinator` owns the whole service state:

* the **durable queue** — an :class:`asyncio.Queue` of job ids mirroring the
  ``queued`` records in the :class:`~repro.serve.store.JobStore`; on startup
  :meth:`Coordinator.start` replays :meth:`JobStore.recover`, so jobs
  interrupted by a server kill re-enter the queue and resume from their
  latest checkpoint;
* a pool of ``workers`` **worker tasks**, each draining the queue and
  executing one job at a time in its own process, forked by one warm
  ``python -m repro.serve.runner <data_dir>`` fork server (crash
  isolation, real cancellation, GIL-free parallelism);
* one :class:`JobChannel` per observed job — the bridge between the
  runner's ``events.jsonl`` and the SSE endpoint.  A tail task polls the
  file while the job runs, updates the record's progress counters, flips
  ``running → checkpointed`` on the first checkpoint, and publishes each
  event to every subscriber queue.

The coordinator is the *only* writer of ``job.json`` while the server is
alive (the runner only appends events and writes artifacts), so record
updates never race across processes.

Example
-------
Run a coordinator manually inside an event loop::

    import asyncio

    from repro.serve import Coordinator, JobStore
    from repro.solve import SolveRequest

    async def demo(tmp_path):
        coordinator = Coordinator(JobStore(tmp_path), workers=2)
        await coordinator.start()
        record = await coordinator.submit(SolveRequest(problem="zdt1", generations=4))
        while not coordinator.get(record.id).is_terminal:
            await asyncio.sleep(0.1)
        await coordinator.stop()
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import sys
import time
from typing import TYPE_CHECKING, Any

import repro
from repro.serve.jobs import (
    CANCELLED,
    CHECKPOINTED,
    DONE,
    FAILED,
    JOB_STATES,
    QUEUED,
    RUNNING,
    JobNotFinishedError,
    JobRecord,
)
from repro.serve.store import STDERR_NAME, JobStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.solve.request import SolveRequest

__all__ = ["Coordinator", "JobChannel", "EVENT_POLL_INTERVAL"]

#: Seconds between polls of a running job's ``events.jsonl``.
EVENT_POLL_INTERVAL = 0.05

#: Seconds :meth:`Coordinator.stop` waits for the fork server to exit before
#: it SIGKILLs the server's process group.
_TERMINATE_GRACE = 5.0

#: Longest stderr tail kept as a failed job's error detail.
_STDERR_TAIL = 4000


class JobChannel:
    """Fan-out of one job's event stream to any number of subscribers.

    Holds the replayable ``history`` (everything already read from the
    job's event log) plus one :class:`asyncio.Queue` per live subscriber.
    ``None`` on a subscriber queue means end-of-stream.

    Example
    -------
    >>> import asyncio
    >>> async def demo():
    ...     channel = JobChannel()
    ...     channel.publish({"type": "generation", "generation": 1})
    ...     history, queue = channel.subscribe()
    ...     return history[0]["generation"]
    >>> asyncio.run(demo())
    1
    """

    def __init__(self, history: "list[dict] | None" = None, offset: int = 0) -> None:
        self.history: list[dict] = list(history or ())
        #: Byte offset in ``events.jsonl`` just past the last complete line
        #: already published — the tail's cursor into the file.
        self.offset = offset
        self.subscribers: list[asyncio.Queue] = []
        self.closed = False

    def subscribe(self) -> tuple[list[dict], asyncio.Queue]:
        """Snapshot the history and register a live queue for what follows."""
        queue: asyncio.Queue = asyncio.Queue()
        history = list(self.history)
        if self.closed:
            queue.put_nowait(None)
        else:
            self.subscribers.append(queue)
        return history, queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        """Detach one subscriber queue (client disconnected)."""
        if queue in self.subscribers:
            self.subscribers.remove(queue)

    def publish(self, event: dict) -> None:
        """Append to history and push to every live subscriber."""
        self.history.append(event)
        for queue in self.subscribers:
            queue.put_nowait(event)

    def close(self) -> None:
        """Signal end-of-stream to every subscriber (job reached a terminal state)."""
        if self.closed:
            return
        self.closed = True
        for queue in self.subscribers:
            queue.put_nowait(None)
        self.subscribers = []


def _runner_environment() -> dict[str, str]:
    """This process's environment, with the root ``repro`` came from first on ``PYTHONPATH``.

    The fork server then imports the same package, also when this process
    found it through ``sys.path`` alone (as a test run does).
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


class _ForkServerDied(Exception):
    """The fork server exited while a job was running in one of its children."""


class _ForkServer:
    """The coordinator's handle on one ``python -m repro.serve.runner`` fork server.

    Sends ``run``/``kill`` lines on its stdin and resolves one future per
    running job from the ``exited <job_id> <code>`` lines on its stdout.
    The server leads its own process group, so if it dies the runners it
    leaves behind are killed with it and every waiting job fails.
    """

    def __init__(self, process: asyncio.subprocess.Process) -> None:
        self.process = process
        self.exits: dict[str, asyncio.Future] = {}
        self.alive = True
        self.reader = asyncio.ensure_future(self._read())

    @classmethod
    async def spawn(cls, data_dir: str, cache_dir: "str | None") -> "_ForkServer":
        """Start a fork server; it imports its preload while jobs queue up."""
        argv = [sys.executable, "-m", "repro.serve.runner", data_dir]
        if cache_dir is not None:
            argv += ["--cache-dir", cache_dir]
        process = await asyncio.create_subprocess_exec(
            *argv,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            start_new_session=True,
            env=_runner_environment(),
        )
        return cls(process)

    async def run(self, job_id: str) -> int:
        """Fork a runner for ``job_id`` and return its exit code."""
        exited = asyncio.get_running_loop().create_future()
        self.exits[job_id] = exited
        try:
            self._send("run", job_id)
            return await exited
        finally:
            self.exits.pop(job_id, None)

    def kill(self, job_id: str) -> None:
        """Ask the server to SIGTERM the runner of ``job_id``, if it still runs."""
        if job_id in self.exits:
            self._send("kill", job_id)

    def _send(self, command: str, job_id: str) -> None:
        # A dead server's pipe swallows the line; its reader fails the job.
        with contextlib.suppress(BrokenPipeError, ConnectionResetError):
            self.process.stdin.write(("%s %s\n" % (command, job_id)).encode("utf-8"))

    def _kill_group(self) -> None:
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.killpg(self.process.pid, signal.SIGKILL)

    async def _read(self) -> None:
        async for line in self.process.stdout:
            word, _, rest = line.decode("utf-8", "replace").strip().partition(" ")
            job_id, _, code = rest.rpartition(" ")
            exited = self.exits.get(job_id)
            if word == "exited" and exited is not None and not exited.done():
                exited.set_result(int(code))
        self.alive = False
        orphaned = [exited for exited in self.exits.values() if not exited.done()]
        if orphaned:
            self._kill_group()
        code = await self.process.wait()
        for exited in orphaned:
            if not exited.done():
                exited.set_exception(
                    _ForkServerDied("fork server exited with code %s" % code)
                )

    async def close(self) -> None:
        """EOF on stdin: the server terminates its runners; await its exit."""
        self.process.stdin.close()
        try:
            await asyncio.wait_for(self.process.wait(), _TERMINATE_GRACE)
        except asyncio.TimeoutError:
            self._kill_group()
            await self.process.wait()
        await self.reader


class Coordinator:
    """Bounded asyncio worker pool over the durable job store.

    Parameters
    ----------
    store:
        The :class:`~repro.serve.store.JobStore` holding every job.
    workers:
        Worker-task count; ``0`` accepts and persists jobs without running
        them (useful for tests and drain-only maintenance).
    cache_dir:
        Optional persistent evaluation-cache directory passed to the fork
        server (``--cache-dir``), so all runners share one
        content-addressed store across jobs and restarts.

    Example
    -------
    >>> import asyncio, tempfile
    >>> from repro.solve import SolveRequest
    >>> async def demo():
    ...     with tempfile.TemporaryDirectory() as base:
    ...         coordinator = Coordinator(JobStore(base), workers=0)
    ...         await coordinator.start()
    ...         record = await coordinator.submit(SolveRequest(problem="zdt1"))
    ...         await coordinator.stop()
    ...         return record.state
    >>> asyncio.run(demo())
    'queued'
    """

    def __init__(
        self, store: JobStore, workers: int = 2, cache_dir: "str | None" = None
    ) -> None:
        self.store = store
        self.workers = int(workers)
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.queue: asyncio.Queue = asyncio.Queue()
        self.channels: dict[str, JobChannel] = {}
        self.fork_server: "_ForkServer | None" = None
        self.records: dict[str, JobRecord] = {}
        self.busy = 0
        self.jobs_completed = 0
        self._worker_tasks: list[asyncio.Task] = []
        self._started_at: float | None = None
        self._recovered = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Recover the durable queue and launch the fork server and worker pool.

        The fork server's preload imports run in the background; the first
        job waits for whatever of them is left.
        """
        self._started_at = time.monotonic()
        runnable = self.store.recover()
        self._recovered = sum(1 for record in runnable if record.restarts > 0)
        for record in runnable:
            self.records[record.id] = record
            self.queue.put_nowait(record.id)
        if self.workers > 0:
            self.fork_server = await self._spawn_fork_server()
        for index in range(self.workers):
            task = asyncio.ensure_future(self._worker(index))
            self._worker_tasks.append(task)

    async def stop(self) -> None:
        """Terminate running jobs and wind down the worker pool.

        Closing the fork server's stdin makes it SIGTERM its runners; the
        coordinator awaits its exit, so no process or transport outlives
        the event loop.  Interrupted jobs stay ``running``/``checkpointed`` on disk and are
        re-queued by the next :meth:`start` — intentionally identical to a
        hard kill, so graceful and crash shutdown share one recovery path.
        """
        for task in self._worker_tasks:
            task.cancel()
        if self._worker_tasks:
            await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        self._worker_tasks = []
        if self.fork_server is not None:
            await self.fork_server.close()
            self.fork_server = None
        for channel in self.channels.values():
            channel.close()

    # ------------------------------------------------------------------
    # Client operations
    # ------------------------------------------------------------------
    async def submit(self, spec: "SolveRequest") -> JobRecord:
        """Validate a request, persist a queued record and enqueue it."""
        spec.validate()
        record = self.store.create(spec)
        self.records[record.id] = record
        self.queue.put_nowait(record.id)
        return record

    def get(self, job_id: str) -> JobRecord:
        """The current record of one job (memory first, then disk)."""
        if job_id in self.records:
            return self.records[job_id]
        record = self.store.load(job_id)
        self.records[job_id] = record
        return record

    def list_jobs(self) -> list[JobRecord]:
        """Every known job record, in submission order."""
        records = {record.id: record for record in self.store.list_records()}
        records.update(self.records)
        return sorted(records.values(), key=lambda record: record.sequence)

    async def cancel(self, job_id: str) -> JobRecord:
        """Cancel one job: dequeue it if queued, terminate it if running.

        Terminal jobs are returned unchanged — cancel is idempotent and
        never un-finishes a job.
        """
        record = self.get(job_id)
        if record.is_terminal:
            return record
        record.cancel_requested = True
        if record.state == QUEUED:
            record.transition(CANCELLED)
            self.store.save(record)
            self._finish_channel(job_id, record)
            return record
        self.store.save(record)
        if self.fork_server is not None:
            self.fork_server.kill(job_id)
        return record

    def subscribe(self, job_id: str) -> tuple[list[dict], asyncio.Queue]:
        """History + live queue of one job's events (the SSE source).

        The replayed history starts with a synthesized ``state`` event so a
        late subscriber immediately knows where the job stands; terminal
        jobs get their full durable history and an immediate end-of-stream.
        """
        record = self.get(job_id)
        channel = self._channel(job_id)
        history, queue = channel.subscribe()
        history.insert(0, self._state_event(record))
        return history, queue

    def unsubscribe(self, job_id: str, queue: asyncio.Queue) -> None:
        """Detach one subscriber from a job's channel."""
        channel = self.channels.get(job_id)
        if channel is not None:
            channel.unsubscribe(queue)

    def stats(self) -> dict[str, Any]:
        """Pool and queue introspection served by ``GET /stats``."""
        counts = {state: 0 for state in JOB_STATES}
        for record in self.list_jobs():
            counts[record.state] = counts.get(record.state, 0) + 1
        return {
            "workers": self.workers,
            "workers_busy": self.busy,
            "queue_depth": self.queue.qsize(),
            "jobs": counts,
            "jobs_completed": self.jobs_completed,
            "jobs_recovered": self._recovered,
            "uptime": round(time.monotonic() - self._started_at, 3)
            if self._started_at is not None
            else 0.0,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _channel(self, job_id: str) -> JobChannel:
        channel = self.channels.get(job_id)
        if channel is None:
            channel = JobChannel(*self.store.read_events(job_id))
            record = self.records.get(job_id)
            if record is not None and record.is_terminal:
                channel.close()
            self.channels[job_id] = channel
        return channel

    @staticmethod
    def _state_event(record: JobRecord) -> dict:
        return {
            "type": "state",
            "state": record.state,
            "generation": record.generation,
            "evaluations": record.evaluations,
            "error": record.error,
        }

    def _finish_channel(self, job_id: str, record: JobRecord) -> None:
        channel = self._channel(job_id)
        channel.publish(self._state_event(record))
        channel.close()

    async def _worker(self, index: int) -> None:
        """One pool slot: drain the queue forever, one job at a time."""
        while True:
            job_id = await self.queue.get()
            record = self.get(job_id)
            if record.state != QUEUED:
                continue  # cancelled while waiting in the queue
            self.busy += 1
            try:
                await self._run_job(record)
                self.jobs_completed += 1
            except asyncio.CancelledError:
                raise
            except Exception as error:  # pragma: no cover - defensive
                record.error = "coordinator error: %s" % error
                if not record.is_terminal:
                    record.transition(FAILED)
                self.store.save(record)
                self._finish_channel(record.id, record)
                self.jobs_completed += 1
            finally:
                self.busy -= 1

    async def _spawn_fork_server(self) -> _ForkServer:
        """Start a fork server for this store and cache."""
        return await _ForkServer.spawn(str(self.store.data_dir), self.cache_dir)

    async def _run_job(self, record: JobRecord) -> None:
        """Execute one job in a forked runner, tailing its event log."""
        job_id = record.id
        restored = self.store.truncate_events(job_id)
        channel = self._channel(job_id)
        channel.history, channel.offset = self.store.read_events(job_id)
        record.transition(RUNNING)
        if restored is not None:
            record.generation = restored
        self.store.save(record)
        channel.publish(self._state_event(record))

        if self.fork_server is None or not self.fork_server.alive:
            self.fork_server = await self._spawn_fork_server()
        tail_task = asyncio.ensure_future(self._tail_events(record, channel))
        error = None
        try:
            code = await self.fork_server.run(job_id)
        except _ForkServerDied as died:
            code, error = None, str(died)
        finally:
            tail_task.cancel()
            try:
                await tail_task
            except (asyncio.CancelledError, Exception):
                pass
        self._consume_events(record, channel)

        if record.cancel_requested and code != 0:
            record.transition(CANCELLED)
        elif code == 0:
            record.transition(DONE)
        else:
            if error is None:
                path = self.store.job_dir(job_id) / STDERR_NAME
                stderr = path.read_bytes() if path.is_file() else b""
                tail = stderr.decode("utf-8", "replace")[-_STDERR_TAIL:].strip()
                error = tail or ("runner exited with code %s" % code)
            record.error = error
            record.transition(FAILED)
        self.store.save(record)
        self._finish_channel(job_id, record)

    async def _tail_events(self, record: JobRecord, channel: JobChannel) -> None:
        """Poll the job's event log while the runner writes it."""
        while True:
            self._consume_events(record, channel)
            await asyncio.sleep(EVENT_POLL_INTERVAL)

    def _consume_events(self, record: JobRecord, channel: JobChannel) -> None:
        """Publish the event-log lines appended since the channel's offset."""
        fresh, channel.offset = self.store.read_events(record.id, channel.offset)
        dirty = False
        for event in fresh:
            generation = event.get("generation")
            if isinstance(generation, int) and generation > record.generation:
                record.generation = generation
                dirty = True
            evaluations = event.get("evaluations")
            if isinstance(evaluations, int) and evaluations > record.evaluations:
                record.evaluations = evaluations
                dirty = True
            if event.get("type") == "checkpoint" and record.state == RUNNING:
                record.transition(CHECKPOINTED)
                dirty = True
            channel.publish(event)
        if dirty:
            self.store.save(record)

    def result_payload(self, job_id: str) -> dict:
        """The finished front artifact of one job (``front.json`` content)."""
        record = self.get(job_id)
        if record.state != DONE:
            raise JobNotFinishedError(
                "job %s has no result yet (state: %s)" % (job_id, record.state)
            )
        path = self.store.job_dir(job_id) / "front.json"
        return json.loads(path.read_text(encoding="utf-8"))
