"""repro.solve — the unified solver API.

One stable contract in front of every optimization engine:

* :func:`solve` — the single entry point: ``solve(problem,
  algorithm="pmo2", termination=..., observers=..., evaluator=...,
  checkpoint=...)`` runs any registered engine through one generic loop;
* :class:`Solver` — the structural protocol engines implement
  (``initialize`` / ``step`` / counters / ``pareto_front`` / ``result``);
* :class:`SolverSpec` / :func:`get_solver` / :func:`solver_names` — the
  solver registry (``nsga2``, ``moead``, ``pmo2``);
* :class:`SolveResult` — the one result type every engine returns;
* :class:`SolveRequest` — one solve described once, as ``repro solve`` and
  the service's jobs build, validate and run it;
* :mod:`~repro.solve.termination` — composable stopping rules
  (:class:`MaxGenerations`, :class:`MaxEvaluations`, :class:`WallClock`,
  :class:`HypervolumeStagnation`, combined with ``&`` / ``|``);
* :mod:`~repro.solve.events` — the observer hook API streaming
  ``on_generation`` / ``on_migration`` / ``on_checkpoint`` events, which
  checkpointing, progress reporting and the future service layer consume.

Example
-------
Any engine, one call::

    from repro.solve import MaxGenerations, solve

    result = solve(problem, algorithm="nsga2", seed=7,
                   termination=MaxGenerations(100))
    print(result.evaluations, result.front_objectives())

See ``docs/solving.md`` for the full guide and the table of the per-engine
``run()`` loops removed in 2.0.
"""

from repro.solve.api import Solver, solve
from repro.solve.events import (
    CallbackObserver,
    CheckpointEvent,
    GenerationEvent,
    MigrationEvent,
    Observer,
    RunProgress,
)
from repro.solve.registry import (
    SolverSpec,
    UnknownSolverError,
    get_solver,
    register_solver,
    solver_names,
)
from repro.solve.result import CheckpointInfo, SolveResult
from repro.solve.request import SolveRequest
from repro.solve.termination import (
    AllOf,
    AnyOf,
    HypervolumeStagnation,
    MaxEvaluations,
    MaxGenerations,
    Termination,
    WallClock,
    as_termination,
)
from repro.solve.warmstart import load_warm_population

__all__ = [
    "Solver",
    "solve",
    "CallbackObserver",
    "CheckpointEvent",
    "GenerationEvent",
    "MigrationEvent",
    "Observer",
    "RunProgress",
    "SolverSpec",
    "UnknownSolverError",
    "get_solver",
    "register_solver",
    "solver_names",
    "CheckpointInfo",
    "SolveResult",
    "SolveRequest",
    "AllOf",
    "AnyOf",
    "HypervolumeStagnation",
    "MaxEvaluations",
    "MaxGenerations",
    "Termination",
    "WallClock",
    "as_termination",
    "load_warm_population",
]
