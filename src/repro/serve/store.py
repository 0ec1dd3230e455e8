"""The durable job store: one directory per job, ``job.json`` as truth.

Layout under the service data directory::

    <data_dir>/jobs/
        000001-4f9a2c/
            job.json         # JobRecord sidecar (atomic rewrite per update)
            events.jsonl     # runner-written event log (SSE replay source)
            checkpoints/     # CheckpointManager directory (resume source)
            runner.stderr    # the forked runner's stderr (failure detail)
            front.json ...   # solve artifacts once the job is done
        000002-b81d0e/
            ...

``job.json`` is written atomically (temp file + rename, the same pattern the
checkpoint layer uses), so a kill can never leave a half-written record.  On
restart the coordinator calls :meth:`JobStore.recover`, which rescans every
job directory, flips interrupted ``running``/``checkpointed`` jobs back to
``queued`` (counting a restart) and returns everything runnable in
submission order — the durable queue *is* the directory tree.

Example
-------
>>> import tempfile
>>> from repro.solve import SolveRequest
>>> with tempfile.TemporaryDirectory() as base:
...     store = JobStore(base)
...     record = store.create(SolveRequest(problem="zdt1", generations=2))
...     store.load(record.id).state
'queued'
"""

from __future__ import annotations

import json
import os
import secrets
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

from repro.runtime.checkpoint import list_checkpoints
from repro.serve.jobs import QUEUED, JobRecord, UnknownJobError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.solve.request import SolveRequest

__all__ = ["JobStore", "RECORD_NAME", "EVENTS_NAME", "CHECKPOINTS_DIR", "STDERR_NAME"]

#: File name of the per-job record sidecar.
RECORD_NAME = "job.json"
#: File name of the per-job event log (the SSE replay source).
EVENTS_NAME = "events.jsonl"
#: Directory name of the per-job checkpoint store.
CHECKPOINTS_DIR = "checkpoints"
#: File name of the per-job runner stderr (a failed job's error detail).
STDERR_NAME = "runner.stderr"


class JobStore:
    """Filesystem-backed job persistence (the durable half of the queue).

    Parameters
    ----------
    data_dir:
        Service data directory; jobs live under ``<data_dir>/jobs``.

    Example
    -------
    >>> import tempfile
    >>> from repro.solve import SolveRequest
    >>> with tempfile.TemporaryDirectory() as base:
    ...     store = JobStore(base)
    ...     record = store.create(SolveRequest(problem="zdt1"))
    ...     [r.id for r in store.list_records()] == [record.id]
    True
    """

    def __init__(self, data_dir: str | os.PathLike) -> None:
        self.data_dir = Path(data_dir)
        self.jobs_dir = self.data_dir / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def job_dir(self, job_id: str) -> Path:
        """Directory of one job (artifacts, events, checkpoints)."""
        return self.jobs_dir / job_id

    def record_path(self, job_id: str) -> Path:
        """Path of one job's ``job.json`` sidecar."""
        return self.job_dir(job_id) / RECORD_NAME

    def events_path(self, job_id: str) -> Path:
        """Path of one job's ``events.jsonl`` log."""
        return self.job_dir(job_id) / EVENTS_NAME

    def checkpoints_dir(self, job_id: str) -> Path:
        """Path of one job's checkpoint directory."""
        return self.job_dir(job_id) / CHECKPOINTS_DIR

    # ------------------------------------------------------------------
    # Creation and persistence
    # ------------------------------------------------------------------
    def _next_sequence(self) -> int:
        highest = 0
        for path in self.jobs_dir.iterdir():
            head = path.name.split("-", 1)[0]
            if head.isdigit():
                highest = max(highest, int(head))
        return highest + 1

    def create(self, spec: "SolveRequest") -> JobRecord:
        """Mint a new queued job: directory, id and persisted record.

        The id is ``<sequence>-<random hex>``: the zero-padded sequence
        keeps directory listings (and the recovered queue) in submission
        order, the hex suffix keeps ids unguessable-unique even if the
        sequence scan ever races.
        """
        sequence = self._next_sequence()
        job_id = "%06d-%s" % (sequence, secrets.token_hex(3))
        directory = self.job_dir(job_id)
        directory.mkdir(parents=True)
        record = JobRecord(id=job_id, sequence=sequence, spec=spec, state=QUEUED)
        self.save(record)
        return record

    def save(self, record: JobRecord) -> Path:
        """Write the record's ``job.json`` atomically (temp file + rename)."""
        directory = self.job_dir(record.id)
        directory.mkdir(parents=True, exist_ok=True)
        target = directory / RECORD_NAME
        descriptor, temp_name = tempfile.mkstemp(
            prefix=".job-", suffix=".tmp", dir=directory
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                json.dump(record.as_dict(), handle, sort_keys=True, indent=2)
                handle.write("\n")
            os.replace(temp_name, target)
        except BaseException:
            if os.path.exists(temp_name):
                os.unlink(temp_name)
            raise
        return target

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load(self, job_id: str) -> JobRecord:
        """Load one job record; unknown ids raise :class:`UnknownJobError`."""
        path = self.record_path(job_id)
        if not path.is_file():
            raise UnknownJobError("unknown job %r" % job_id)
        return JobRecord.from_dict(json.loads(path.read_text(encoding="utf-8")))

    def list_records(self) -> list[JobRecord]:
        """Every stored job record, in submission (sequence) order.

        Directories without a readable ``job.json`` (a job killed between
        ``mkdir`` and the first record write) are skipped.
        """
        records = []
        for path in sorted(self.jobs_dir.iterdir()):
            if (path / RECORD_NAME).is_file():
                records.append(self.load(path.name))
        records.sort(key=lambda record: record.sequence)
        return records

    def read_events(self, job_id: str) -> list[dict]:
        """Parse one job's ``events.jsonl`` (empty when none was written).

        Torn trailing lines (a kill mid-write) are ignored, so recovery
        never trips over a partial record.
        """
        path = self.events_path(job_id)
        if not path.is_file():
            return []
        events = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    events.append(json.loads(line))
                except json.JSONDecodeError:
                    continue
        return events

    # ------------------------------------------------------------------
    # Restart recovery
    # ------------------------------------------------------------------
    def latest_checkpoint_generation(self, job_id: str) -> int | None:
        """Generation of the newest resumable checkpoint, ``None`` if none.

        Read from the file names by
        :func:`~repro.runtime.checkpoint.list_checkpoints` — the same listing
        the resumed run restores from — so no pickle is loaded.
        """
        found = list_checkpoints(self.checkpoints_dir(job_id))
        return found[-1][0] if found else None

    def truncate_events(self, job_id: str) -> int | None:
        """Align the event log with the checkpoint a resumed run restores.

        A job killed between checkpoints has logged events *beyond* the
        generation the resume will restore; replaying those to an SSE
        subscriber would show progress the re-run is about to repeat.
        Dropping every event past the latest checkpoint generation (or the
        whole log when no checkpoint exists — the re-run starts from
        scratch) keeps the event stream monotonic across restarts.

        Returns the generation the log was truncated to (``None`` when the
        log was cleared entirely).
        """
        restored = self.latest_checkpoint_generation(job_id)
        path = self.events_path(job_id)
        if not path.is_file():
            return restored
        if restored is None:
            path.unlink()
            return None
        kept = [
            event
            for event in self.read_events(job_id)
            if event.get("generation", 0) <= restored
        ]
        with open(path, "w", encoding="utf-8") as handle:
            for event in kept:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        return restored

    def recover(self) -> list[JobRecord]:
        """Rescan the store after a restart; return the runnable queue.

        Interrupted jobs (``running`` / ``checkpointed`` on disk — the
        server died while a worker had them) take the recovery edge back to
        ``queued`` with ``restarts`` incremented and are persisted, so the
        returned list is exactly the jobs a fresh coordinator should
        enqueue, in submission order.  Their checkpoints stay in place: the
        re-run resumes from the latest one bitwise-identically.
        """
        runnable = []
        for record in self.list_records():
            if record.is_active:
                record.transition(QUEUED)
                record.restarts += 1
                self.save(record)
                runnable.append(record)
            elif record.state == QUEUED:
                runnable.append(record)
        return runnable
