"""One solve, described once: the request behind ``repro solve`` and served jobs.

``repro solve`` builds a :class:`SolveRequest` from its flags, the service
from a submit payload and the job runner from a stored ``job.json``; all
three validate and run it the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, get_args, get_type_hints

from repro.exceptions import ConfigurationError
from repro.moo.validation import check_finite_box
from repro.params import Parameter
from repro.problems.registry import build_problem
from repro.solve.api import solve
from repro.solve.registry import UnknownSolverError, get_solver
from repro.solve.termination import (
    HypervolumeStagnation,
    MaxEvaluations,
    MaxGenerations,
    Termination,
    WallClock,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.problems.base import Problem
    from repro.solve.events import Observer
    from repro.solve.result import SolveResult

__all__ = ["SolveRequest", "REQUEST_PARAMETERS", "MAX_POPULATION", "MAX_BUDGET_ROWS"]

#: The largest population (per island for ``pmo2``) a request may ask for.
MAX_POPULATION = 10_000

#: The most rows a request may budget: population × (generations + 1),
#: times the island count for ``pmo2``.
MAX_BUDGET_ROWS = 10_000_000


@dataclass(frozen=True)
class SolveRequest:
    """What one solve runs: problem, solver, seed, termination, population.

    ``problem`` is a spec string of :func:`repro.problems.build_problem` and
    ``algorithm`` a registered solver.  ``generations`` is always part of
    the termination; ``max_evaluations``, ``wall_clock`` (seconds) and
    ``hv_patience`` / ``hv_tolerance`` (``HypervolumeStagnation``) are or-ed
    onto it when set.  ``population`` is per island for ``pmo2``.
    ``checkpoint_interval`` and ``telemetry`` tell the caller how to record
    the run.  The fields that default to ``None`` may be null.

    The defaults are the service's; ``repro solve`` documents its own
    (``pmo2``, seed 2011, checkpoint interval 10, telemetry off) in its
    flags.  Settings that name a resource of the host running the solve
    (workers, caches, warm-start sources, paths) are not fields:
    :meth:`run` takes them as arguments.

    Example
    -------
    >>> request = SolveRequest.from_payload({"problem": "zdt1", "max_evaluations": 400})
    >>> request.algorithm, request.termination()
    ('nsga2', (MaxGenerations(100) | MaxEvaluations(400)))
    """

    problem: str
    algorithm: str = "nsga2"
    seed: int = 0
    generations: int = 100
    max_evaluations: int | None = None
    wall_clock: float | None = None
    hv_patience: int | None = None
    hv_tolerance: float = 1e-6
    population: int | None = None
    checkpoint_interval: int = 5
    telemetry: bool = True

    @classmethod
    def from_payload(cls, payload: Any) -> "SolveRequest":
        """Build a request from a JSON submit payload or a stored ``"spec"``."""
        if not isinstance(payload, dict):
            raise ConfigurationError(
                "job payload must be a JSON object, got %s" % type(payload).__name__
            )
        return cls._coerced(payload)

    @classmethod
    def from_namespace(cls, args: Any) -> "SolveRequest":
        """Build a request from the parsed ``repro solve`` flags."""
        return cls._coerced({name: getattr(args, name) for name in _SCHEMA})

    @classmethod
    def _coerced(cls, values: dict[str, Any]) -> "SolveRequest":
        """The one construction check: known keys, allowed nulls, coerced types."""
        unknown = sorted(set(values) - set(_SCHEMA))
        if unknown:
            raise ConfigurationError(
                "unknown job field(s) %s (known: %s)" % (", ".join(unknown), ", ".join(_SCHEMA))
            )
        if values.get("problem") is None:
            raise ConfigurationError("a solve needs a 'problem' spec string")
        for name, value in values.items():
            if value is None and _SCHEMA[name].default is not None:
                raise ConfigurationError("field %r must not be null" % name)
        request = cls(**{name: _SCHEMA[name].coerce(value) for name, value in values.items()})
        if request.generations < 1 or request.checkpoint_interval < 1:
            raise ConfigurationError("generations and checkpoint_interval must be positive")
        return request

    def validate(self) -> None:
        """Refuse now a request whose run could only fail.

        Checks the seed and the floats, then builds the solver, the problem
        (whose box must be finite), the solver configuration and the
        termination, and caps the population at :data:`MAX_POPULATION` and
        the row budget at :data:`MAX_BUDGET_ROWS`, so every bad field is
        a :class:`~repro.exceptions.ConfigurationError`: one ``error:`` line
        from the CLI, a 400 from the service.
        """
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative, got %d" % self.seed)
        for name in ("wall_clock", "hv_tolerance"):
            if not math.isfinite(getattr(self, name) or 0.0):
                raise ConfigurationError("%s must be finite" % name)
        try:
            solver = get_solver(self.algorithm)
        except UnknownSolverError as error:
            raise ConfigurationError(error.args[0]) from None
        check_finite_box(build_problem(self.problem))
        config = solver.config_cls(**solver.population_overrides(self.population))
        config.validate()
        population = getattr(config, "population_size", None) or config.island_population_size
        if population > MAX_POPULATION:
            raise ConfigurationError(
                "population %d is above the limit of %d (MAX_POPULATION)"
                % (population, MAX_POPULATION)
            )
        rows = population * (self.generations + 1) * getattr(config, "n_islands", 1)
        if rows > MAX_BUDGET_ROWS:
            raise ConfigurationError(
                "row budget %d (population x (generations + 1) x islands) is above the"
                " limit of %d (MAX_BUDGET_ROWS)" % (rows, MAX_BUDGET_ROWS)
            )
        self.termination()

    def termination(self) -> Termination:
        """The generation budget or-ed with every further stopping rule set."""
        stopping: Termination = MaxGenerations(self.generations)
        if self.max_evaluations is not None:
            stopping = stopping | MaxEvaluations(self.max_evaluations)
        if self.wall_clock is not None:
            stopping = stopping | WallClock(self.wall_clock)
        if self.hv_patience is not None:
            stopping = stopping | HypervolumeStagnation(self.hv_patience, self.hv_tolerance)
        return stopping

    def run(
        self,
        *,
        observers: "Iterable[Observer]" = (),
        checkpoint_dir: "str | None",
        cache_dir: "str | None" = None,
        **runtime: Any,
    ) -> "tuple[Problem, SolveResult]":
        """Build the problem and :func:`~repro.solve.solve` it; ``(problem, result)``.

        ``runtime`` is what only ``repro solve`` sets: ``n_workers``,
        ``cache`` and ``warm_start``.
        """
        solver = get_solver(self.algorithm)
        problem = build_problem(self.problem)
        result = solve(
            problem,
            algorithm=solver,
            seed=self.seed,
            termination=self.termination(),
            observers=observers,
            cache_dir=cache_dir,
            checkpoint_dir=checkpoint_dir,
            checkpoint_interval=self.checkpoint_interval,
            **runtime,
            **solver.population_overrides(self.population),
        )
        return problem, result

    def as_dict(self) -> dict[str, Any]:
        """Every field: ``job.json``'s ``"spec"`` and the manifest parameters."""
        return {name: getattr(self, name) for name in _SCHEMA}


def _value_type(hint: Any) -> type:
    """``int`` for both ``int`` and ``int | None``."""
    return next((kind for kind in get_args(hint) if kind is not type(None)), hint)


#: The request schema: one :class:`~repro.params.Parameter` per field.
REQUEST_PARAMETERS: tuple[Parameter, ...] = tuple(
    Parameter(name, _value_type(hint), getattr(SolveRequest, name, None))
    for name, hint in get_type_hints(SolveRequest).items()
)

_SCHEMA = {parameter.name: parameter for parameter in REQUEST_PARAMETERS}
