"""Job specifications, job records and the per-job state machine.

Every optimization job the service accepts is described by a
:class:`JobSpec` (what to solve: problem spec string, algorithm, seed,
termination budget) and tracked by a :class:`JobRecord` (how the run is
going: state, counters, timestamps, error detail).  The record is an
explicit state machine::

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
>>> spec = JobSpec(problem="zdt1", algorithm="nsga2", seed=7, generations=4)
>>> record = JobRecord(id="000001-abc", sequence=1, spec=spec)
>>> record.transition(RUNNING)
>>> record.transition(DONE)
>>> record.state
'done'
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from typing import Any

from repro.exceptions import ConfigurationError
from repro.params import Parameter

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
    "JobSpec",
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


#: Type each :class:`JobSpec` field is coerced to by :meth:`Parameter.coerce`.
_FIELD_TYPES: dict[str, type] = dict(
    problem=str, algorithm=str, seed=int, generations=int, max_evaluations=int,
    population=int, checkpoint_interval=int, telemetry=bool,
)


@dataclass
class JobSpec:
    """What one job solves: the submit-time payload, validated and typed.

    Attributes
    ----------
    problem:
        Problem spec string of the registry
        (:func:`repro.problems.build_problem`), e.g. ``"zdt1?n_var=10"``.
    algorithm:
        Registered solver name (``"nsga2"``, ``"moead"``, ``"pmo2"``).
    seed:
        Master random seed; together with the other fields it pins the run,
        so a resumed job reproduces the uninterrupted run bitwise.
    generations:
        Generation budget (``MaxGenerations`` termination).
    max_evaluations:
        Optional additional evaluation cap (``| MaxEvaluations``).
    population:
        Optional population size override (per island for ``pmo2``).
    checkpoint_interval:
        Generations between resumable checkpoints inside the job directory.
    telemetry:
        Record ``trace.jsonl`` and ``timeseries.csv`` into the job
        directory, next to its ``ledger.json`` (readable with ``repro
        trace`` / ``repro stats``).

    Example
    -------
    >>> JobSpec.from_payload({"problem": "zdt1", "generations": 5}).generations
    5
    """

    problem: str
    algorithm: str = "nsga2"
    seed: int = 0
    generations: int = 100
    max_evaluations: int | None = None
    population: int | None = None
    checkpoint_interval: int = 5
    telemetry: bool = True

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "JobSpec":
        """Build a spec from a submit payload, rejecting unknown keys."""
        if not isinstance(payload, dict):
            raise ConfigurationError(
                "job payload must be a JSON object, got %s" % type(payload).__name__
            )
        known = {f.name: f for f in fields(cls)}
        unknown = sorted(set(payload) - set(known))
        if unknown:
            raise ConfigurationError(
                "unknown job field(s) %s (known: %s)"
                % (", ".join(unknown), ", ".join(sorted(known)))
            )
        if "problem" not in payload:
            raise ConfigurationError("job payload needs a 'problem' spec string")
        values = {}
        for name, value in payload.items():
            # Only the fields that default to None may be null.
            if value is None and known[name].default is not None:
                raise ConfigurationError("job field %r must not be null" % name)
            values[name] = Parameter(name, _FIELD_TYPES[name], None).coerce(value)
        spec = cls(**values)
        if spec.generations < 1:
            raise ConfigurationError("generations must be positive")
        if spec.checkpoint_interval < 1:
            raise ConfigurationError("checkpoint_interval must be positive")
        return spec

    def validate(self) -> None:
        """Resolve the problem and solver now, so bad specs fail at submit.

        Building the problem and looking up the solver raises the exact
        errors (unknown names, bad parameters, did-you-mean hints) the CLI
        shows — surfaced as an HTTP 400 instead of a failed job later.
        """
        from repro.problems import build_problem
        from repro.solve import UnknownSolverError, get_solver

        build_problem(self.problem)
        try:
            get_solver(self.algorithm)
        except UnknownSolverError as error:
            # KeyError subclass -> ConfigurationError, so the HTTP layer
            # maps a mistyped algorithm onto 400, not 500.
            raise ConfigurationError(str(error.args[0] if error.args else error))

    def termination(self):
        """The composed Termination object this spec's budget describes."""
        from repro.solve import MaxEvaluations, MaxGenerations

        stopping = MaxGenerations(self.generations)
        if self.max_evaluations is not None:
            stopping = stopping | MaxEvaluations(self.max_evaluations)
        return stopping

    def as_dict(self) -> dict[str, Any]:
        """Plain-dictionary view stored inside ``job.json``."""
        return {
            "problem": self.problem,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "generations": self.generations,
            "max_evaluations": self.max_evaluations,
            "population": self.population,
            "checkpoint_interval": self.checkpoint_interval,
            "telemetry": self.telemetry,
        }


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
        The :class:`JobSpec` the job runs.
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
    >>> record = JobRecord(id="1-a", sequence=1, spec=JobSpec(problem="zdt1"))
    >>> record.transition(RUNNING); record.state
    'running'
    """

    id: str
    sequence: int
    spec: JobSpec
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
        return {
            "format_version": 1,
            "id": self.id,
            "sequence": self.sequence,
            "spec": self.spec.as_dict(),
            "state": self.state,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "generation": self.generation,
            "evaluations": self.evaluations,
            "error": self.error,
            "restarts": self.restarts,
            "cancel_requested": self.cancel_requested,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "JobRecord":
        """Rebuild a record from a loaded ``job.json`` dictionary."""
        return cls(
            id=str(payload["id"]),
            sequence=int(payload["sequence"]),
            spec=JobSpec.from_payload(dict(payload["spec"])),
            state=str(payload.get("state", QUEUED)),
            created=payload.get("created") or utc_now(),
            started=payload.get("started"),
            finished=payload.get("finished"),
            generation=int(payload.get("generation", 0)),
            evaluations=int(payload.get("evaluations", 0)),
            error=payload.get("error"),
            restarts=int(payload.get("restarts", 0)),
            cancel_requested=bool(payload.get("cancel_requested", False)),
        )
