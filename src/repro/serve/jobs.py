"""Job records and the per-job state machine.

Every optimization job the service accepts is described by a
:class:`~repro.solve.request.SolveRequest` (what to solve: problem spec
string, algorithm, seed, termination budget — the same request ``repro
solve`` runs) and tracked by a :class:`JobRecord` (how the run is going:
state, counters, timestamps, error detail).  The record is an explicit
state machine::

    queued ──▶ running ──▶ checkpointed ──▶ done
       │          │    ╲        │      ╲──▶ failed
       │          │     ╲───────┼──────────▶ (done/failed/cancelled)
       └──▶ cancelled◀──────────┘

plus one *recovery* edge — ``running``/``checkpointed`` back to ``queued`` —
taken when a killed server restarts and re-enqueues interrupted jobs for
resumption.  :meth:`JobRecord.transition` validates every edge, so an
illegal transition (e.g. resurrecting a ``done`` job) is a programming
error surfaced immediately, not silent state corruption.

Records serialize to one ``job.json`` sidecar per job directory (see
:mod:`repro.serve.store`), which is the durable source of truth the
coordinator rebuilds its queue from after a restart.

Example
-------
>>> from repro.solve import SolveRequest
>>> spec = SolveRequest(problem="zdt1", algorithm="nsga2", seed=7, generations=4)
>>> record = JobRecord(id="000001-abc", sequence=1, spec=spec)
>>> _ = record.transition(RUNNING).transition(DONE)
>>> record.state
'done'
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Any

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.solve.request import SolveRequest

__all__ = [
    "QUEUED",
    "RUNNING",
    "CHECKPOINTED",
    "DONE",
    "FAILED",
    "CANCELLED",
    "JOB_STATES",
    "TERMINAL_STATES",
    "ALLOWED_TRANSITIONS",
    "InvalidTransitionError",
    "JobNotFinishedError",
    "UnknownJobError",
    "JobRecord",
    "utc_now",
]

#: Job accepted and waiting for a worker slot.
QUEUED = "queued"
#: A worker subprocess is executing the job.
RUNNING = "running"
#: Running, with at least one resumable checkpoint on disk.
CHECKPOINTED = "checkpointed"
#: Finished successfully; the result artifacts are readable.
DONE = "done"
#: The worker subprocess exited with an error; ``error`` holds the detail.
FAILED = "failed"
#: Cancelled by the client before completion.
CANCELLED = "cancelled"

#: Every state, in lifecycle order.
JOB_STATES = (QUEUED, RUNNING, CHECKPOINTED, DONE, FAILED, CANCELLED)

#: States a job never leaves.
TERMINAL_STATES = frozenset((DONE, FAILED, CANCELLED))

#: The legal edges of the state machine.  ``running``/``checkpointed`` →
#: ``queued`` is the restart-recovery edge; everything else is the normal
#: lifecycle.
ALLOWED_TRANSITIONS: dict[str, frozenset[str]] = {
    QUEUED: frozenset((RUNNING, CANCELLED)),
    RUNNING: frozenset((CHECKPOINTED, DONE, FAILED, CANCELLED, QUEUED)),
    CHECKPOINTED: frozenset((DONE, FAILED, CANCELLED, QUEUED)),
    DONE: frozenset(),
    FAILED: frozenset(),
    CANCELLED: frozenset(),
}


class InvalidTransitionError(ConfigurationError):
    """Raised on a state-machine edge that is not in the transition table."""


class JobNotFinishedError(ConfigurationError):
    """Raised when a result is requested before the job reaches ``done``.

    The HTTP layer maps it onto a 409 Conflict — the request is well-formed,
    the job exists, but the resource is not ready yet.
    """


class UnknownJobError(KeyError):
    """Raised when a job id does not exist in the store.

    A :class:`KeyError` subclass so callers keep dictionary semantics while
    the HTTP layer maps it onto a 404 response.
    """

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.args[0] if self.args else "unknown job"


def utc_now() -> str:
    """Current UTC time as an ISO-8601 string (the record timestamp format)."""
    return datetime.now(timezone.utc).isoformat()


@dataclass
class JobRecord:
    """Durable state of one job: the content of its ``job.json`` sidecar.

    Attributes
    ----------
    id:
        Job identifier (``<sequence>-<hex>``), also the job directory name.
    sequence:
        Monotonic submission index; the durable queue drains in this order.
    spec:
        The :class:`~repro.solve.request.SolveRequest` the job runs, stored
        as ``job.json``'s ``"spec"``.
    state:
        Current state-machine state (one of :data:`JOB_STATES`).
    created, started, finished:
        ISO-8601 UTC timestamps of the lifecycle edges.
    generation, evaluations:
        Latest progress counters observed from the job's event stream.
    error:
        Failure detail (worker stderr tail) once ``state == "failed"``.
    restarts:
        Times the job was re-queued by restart recovery.
    cancel_requested:
        Set by the cancel endpoint; the coordinator terminates the worker
        and marks the job ``cancelled``.

    Example
    -------
    >>> from repro.solve import SolveRequest
    >>> record = JobRecord(id="1-a", sequence=1, spec=SolveRequest(problem="zdt1"))
    >>> record.transition(RUNNING).state
    'running'
    """

    id: str
    sequence: int
    spec: "SolveRequest"
    state: str = QUEUED
    created: str = field(default_factory=utc_now)
    started: str | None = None
    finished: str | None = None
    generation: int = 0
    evaluations: int = 0
    error: str | None = None
    restarts: int = 0
    cancel_requested: bool = False

    @property
    def is_terminal(self) -> bool:
        """Whether the job reached ``done``, ``failed`` or ``cancelled``."""
        return self.state in TERMINAL_STATES

    @property
    def is_active(self) -> bool:
        """Whether a worker is (supposed to be) executing the job."""
        return self.state in (RUNNING, CHECKPOINTED)

    def transition(self, state: str) -> "JobRecord":
        """Move to ``state``, validating the edge against the table.

        Timestamps are maintained on the natural edges: entering ``running``
        stamps ``started`` (first time only — resumed jobs keep the original
        start), entering a terminal state stamps ``finished``.
        """
        if state not in ALLOWED_TRANSITIONS:
            raise InvalidTransitionError("unknown job state %r" % state)
        if state not in ALLOWED_TRANSITIONS[self.state]:
            raise InvalidTransitionError(
                "illegal job transition %s -> %s (allowed: %s)"
                % (self.state, state, ", ".join(sorted(ALLOWED_TRANSITIONS[self.state])) or "none")
            )
        self.state = state
        if state == RUNNING and self.started is None:
            self.started = utc_now()
        if state in TERMINAL_STATES:
            self.finished = utc_now()
        return self

    def as_dict(self) -> dict[str, Any]:
        """Plain-dictionary view written to ``job.json`` (and HTTP responses)."""
        record = {item.name: getattr(self, item.name) for item in fields(self)}
        return {"format_version": 1, **record, "spec": self.spec.as_dict()}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "JobRecord":
        """Rebuild a record from a loaded ``job.json`` dictionary.

        A ``"spec"`` written before the request gained its ``wall_clock``,
        ``hv_patience`` and ``hv_tolerance`` fields loads with them at their
        defaults.
        """
        # Imported here, not at module top: loading repro.solve would slow
        # the service's start, which never needs it.
        from repro.solve.request import SolveRequest

        record = {item.name: payload[item.name] for item in fields(cls) if item.name in payload}
        return cls(**record | {"spec": SolveRequest.from_payload(dict(payload["spec"]))})
