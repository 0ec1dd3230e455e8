"""The unified ``solve()`` entry point and the :class:`Solver` protocol.

Every optimization engine in this library — NSGA-II, MOEA/D and the PMO2
archipelago — runs through the single generic loop in this module.
The loop owns checkpoint restore/save, termination, evaluator assembly and
tear-down, ledger phases, per-generation history, and the streaming of
:mod:`repro.solve.events` to observers.  Engines only provide the
:class:`Solver` protocol surface (``initialize`` / ``step`` / counters /
front snapshots).

Determinism: the loop performs ``initialize()`` followed by ``step()`` until
the termination fires, and every engine's random state travels inside its
checkpoints, so a run is a pure function of its seed whether it is serial,
pooled, cached or resumed.

Example
-------
All three engines, one code path::

    from repro.solve import MaxGenerations, solve

    for algorithm in ("nsga2", "moead", "pmo2"):
        result = solve(problem, algorithm=algorithm, seed=7,
                       termination=MaxGenerations(50))
        print(algorithm, result.evaluations, len(result.front))
"""

from __future__ import annotations

import logging
import time
from typing import TYPE_CHECKING, Any, Iterable, Protocol, runtime_checkable

from repro.exceptions import ConfigurationError
from repro.moo.validation import check_finite_box
from repro.obs.trace import get_tracer
from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.evaluator import build_evaluator
from repro.runtime.ledger import EvaluationLedger
from repro.solve.events import (
    CheckpointEvent,
    GenerationEvent,
    MigrationEvent,
    Observer,
    RunProgress,
)
from repro.solve.registry import SolverSpec, get_solver
from repro.solve.result import CheckpointInfo, SolveResult
from repro.solve.termination import Termination, as_termination

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.moo.individual import Population
    from repro.problems.base import Problem
    from repro.runtime.evaluator import Evaluator

__all__ = ["Solver", "solve"]


@runtime_checkable
class Solver(Protocol):
    """Structural contract every engine satisfies (duck-typed, checkable).

    The generic :func:`solve` loop only ever touches this surface; the run's
    ledger is read from ``evaluator``, and anything engine-specific (island
    fronts) is returned through :meth:`result`'s ``extras``.
    ``isinstance(engine, Solver)`` performs a structural check, so
    third-party optimizers plug in without inheriting from anything.
    """

    generation: int
    evaluations: int
    evaluator: "Evaluator"

    @property
    def is_initialized(self) -> bool:
        """Whether the initial population has been created (or restored)."""
        ...

    def initialize(self) -> None:
        """Create and evaluate the initial population."""
        ...

    def step(self) -> None:
        """Advance the solver by one generation."""
        ...

    def pareto_front(self) -> "Population":
        """Snapshot of the non-dominated front accumulated so far."""
        ...

    def result(self) -> SolveResult:
        """Package the solver's current state as a :class:`SolveResult`."""
        ...


def _initialize(engine: Any, initial_population: Any) -> None:
    """Initialize ``engine``, forwarding an initial population when given.

    Support is decided by inspecting ``initialize``'s signature rather than
    catching ``TypeError``, so genuine type errors raised inside problem or
    engine code surface with their real traceback.
    """
    if initial_population is None:
        engine.initialize()
        return
    import inspect

    if not inspect.signature(engine.initialize).parameters:
        raise ConfigurationError(
            "solver %r does not accept an initial population"
            % type(engine).__name__
        )
    engine.initialize(initial_population)


_LOG = logging.getLogger("repro.solve")


def _dispatch(observers: "tuple[Observer, ...]", method: str, event: Any) -> None:
    """Deliver one event to every observer, surviving observer failures.

    Observers are best-effort consumers (progress bars, telemetry, event
    logs): a raising observer must never kill the solve it is watching.
    The exception is logged with its traceback, recorded as one
    ``solve.observer_error`` span on the process tracer, and dispatch
    continues with the next observer.
    """
    for observer in observers:
        try:
            getattr(observer, method)(event)
        except Exception:
            _LOG.exception(
                "observer %s.%s failed at generation %s; continuing",
                type(observer).__name__,
                method,
                getattr(event, "generation", "?"),
            )
            with get_tracer().span(
                "solve.observer_error", observer=type(observer).__name__, method=method
            ):
                pass


def _drive(
    engine: Any,
    termination: Termination,
    observers: tuple[Observer, ...],
    checkpoint: CheckpointManager | None,
    info: CheckpointInfo | None,
    ledger: EvaluationLedger,
    initial_population: Any,
) -> list[dict]:
    """The generic initialize-and-step loop; returns the per-generation history.

    History entries are appended to the engine's own ``history`` list (every
    engine carries one), so they travel inside checkpoints and a resumed run
    returns the full history of the uninterrupted run.
    """
    started = time.perf_counter()
    tracer = get_tracer()
    if not engine.is_initialized:
        with tracer.span("solve.initialize"):
            _initialize(engine, initial_population)
    elif initial_population is not None:
        raise ConfigurationError(
            "cannot inject an initial population into a restored run"
        )
    termination.reset()
    engine_history = getattr(engine, "history", None)
    history: list[dict] = engine_history if isinstance(engine_history, list) else []
    while True:
        progress = RunProgress(
            generation=engine.generation,
            evaluations=engine.evaluations,
            elapsed=time.perf_counter() - started,
            front_factory=engine.pareto_front,
        )
        if termination.should_stop(progress):
            break
        evaluations_before = engine.evaluations
        hits_before = ledger.total_cache_hits
        migrations_before = getattr(engine, "migrations", 0)
        with tracer.span("solve.generation") as span:
            engine.step()
            span.set(
                generation=engine.generation,
                evaluations=engine.evaluations - evaluations_before,
            )
        elapsed = time.perf_counter() - started
        event = GenerationEvent(
            generation=engine.generation,
            evaluations=engine.evaluations,
            elapsed=elapsed,
            front_factory=engine.pareto_front,
            evaluations_delta=engine.evaluations - evaluations_before,
            cache_hits_delta=ledger.total_cache_hits - hits_before,
        )
        history.append(
            {
                "generation": engine.generation,
                "evaluations": engine.evaluations,
                "evaluations_delta": event.evaluations_delta,
            }
        )
        _dispatch(observers, "on_generation", event)
        migrations = getattr(engine, "migrations", 0)
        if migrations > migrations_before:
            migration_event = MigrationEvent(
                generation=engine.generation,
                evaluations=engine.evaluations,
                elapsed=elapsed,
                front_factory=engine.pareto_front,
                migrations=migrations,
            )
            _dispatch(observers, "on_migration", migration_event)
        if checkpoint is not None:
            with tracer.span("solve.checkpoint", generation=engine.generation) as span:
                path = checkpoint.maybe_save(engine, engine.generation)
                span.set(saved=path is not None)
            if path is not None:
                assert info is not None
                info.saves += 1
                info.last_path = str(path)
                checkpoint_event = CheckpointEvent(
                    generation=engine.generation,
                    evaluations=engine.evaluations,
                    elapsed=time.perf_counter() - started,
                    front_factory=engine.pareto_front,
                    path=str(path),
                )
                _dispatch(observers, "on_checkpoint", checkpoint_event)
    return history


def solve(
    problem: "Problem",
    algorithm: "str | SolverSpec" = "pmo2",
    *,
    config: Any | None = None,
    termination: "Termination | int | None" = None,
    seed: int | None = None,
    observers: Iterable[Observer] = (),
    evaluator: "Evaluator | None" = None,
    n_workers: int = 1,
    cache: bool = False,
    checkpoint: CheckpointManager | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_interval: int = 10,
    initial_population: Any | None = None,
    cache_dir: "str | None" = None,
    warm_start: "str | None" = None,
    **config_overrides: Any,
) -> SolveResult:
    """Run any registered solver on ``problem`` and return a :class:`SolveResult`.

    This is the single front door to every engine: one signature, pluggable
    termination, streaming run events, and uniform evaluator / checkpoint
    support (which is how MOEA/D gained the ``n_workers`` / ``checkpoint``
    features the other engines already had).

    Parameters
    ----------
    problem:
        The :class:`~repro.problems.Problem` to minimize; its box must be
        finite.
    algorithm:
        Registry name (``"nsga2"``, ``"moead"``, ``"pmo2"``) or a
        :class:`~repro.solve.registry.SolverSpec`; the result's
        ``algorithm`` is the spec's name.
    config:
        Solver configuration object; mutually exclusive with
        ``**config_overrides``, which are forwarded to the solver's config
        class (``solve(p, "nsga2", population_size=64)``).
    termination:
        A :class:`~repro.solve.termination.Termination` (composable with
        ``&`` / ``|``) or a plain int meaning ``MaxGenerations(n)``.
        Required: every run needs a stopping rule.
    seed:
        Master random seed; runs are deterministic in it.
    observers:
        :class:`~repro.solve.events.Observer` instances receiving
        ``on_generation`` / ``on_migration`` / ``on_checkpoint`` events.
    evaluator:
        Explicit :class:`~repro.runtime.evaluator.Evaluator`; overrides the
        ``n_workers`` / ``cache`` knobs.  Caller-owned (never closed here).
    n_workers, cache:
        Without an explicit evaluator, :func:`solve` always builds one with
        :func:`~repro.runtime.evaluator.build_evaluator` — a process pool
        when ``n_workers > 1``, memoizing with ``cache=True`` — so every
        result carries an evaluation ledger.
    checkpoint, checkpoint_dir, checkpoint_interval:
        Kill-safe resume: an explicit
        :class:`~repro.runtime.checkpoint.CheckpointManager`, or a directory
        from which one is built.  The latest checkpoint (if any) is restored
        before stepping, and the termination bound is the *total* target.
    initial_population:
        Optional seeded initial population (NSGA-II only).
    cache_dir:
        Directory of a persistent shared evaluation cache
        (:class:`~repro.runtime.diskcache.DiskCache`); assembles a
        :class:`~repro.runtime.diskcache.PersistentCachedEvaluator` when no
        explicit evaluator is given.  Every run and process pointing at the
        same directory shares one content-addressed store, and a cached run
        stays bitwise identical to an uncached one.
    warm_start:
        A prior run directory (or a ``front.json`` path) whose recorded
        front seeds the initial population; the remainder of the population
        is sampled as usual, so the run stays deterministic in ``seed``.
        Spec compatibility is validated (decision width, design space).
        Mutually exclusive with ``initial_population``; ignored when a
        checkpoint restore already provides the population.

    Example
    -------
    Budget-or-convergence, with a streaming observer::

        from repro.solve import HypervolumeStagnation, MaxGenerations, Observer, solve

        class Log(Observer):
            def on_generation(self, event):
                print(event.generation, event.evaluations, len(event.front))

        result = solve(problem, algorithm="nsga2", seed=7,
                       termination=MaxGenerations(200) | HypervolumeStagnation(15),
                       observers=[Log()])
    """
    spec = algorithm if isinstance(algorithm, SolverSpec) else get_solver(algorithm)
    check_finite_box(problem)
    stopping = as_termination(termination)
    observers = tuple(observers)
    if warm_start is not None and initial_population is not None:
        raise ConfigurationError(
            "pass either warm_start or initial_population, not both"
        )
    user_evaluator = evaluator
    if evaluator is None:
        evaluator = build_evaluator(n_workers=n_workers, cache=cache, cache_dir=cache_dir)
    engine = spec.build(
        problem, config=config, seed=seed, evaluator=evaluator, **config_overrides
    )
    if checkpoint is None and checkpoint_dir is not None:
        checkpoint = CheckpointManager(checkpoint_dir, interval=checkpoint_interval)
    info = (
        CheckpointInfo(directory=str(checkpoint.directory), interval=checkpoint.interval)
        if checkpoint is not None
        else None
    )
    try:
        with get_tracer().span(
            "solve.run",
            algorithm=spec.name,
            problem=problem.name,
            seed=seed,
        ):
            if checkpoint is not None and checkpoint.restore(engine):
                assert info is not None
                info.restored_generation = engine.generation
            if warm_start is not None and not engine.is_initialized:
                # Materialized only when the engine will actually build an
                # initial population: a restored run already has one, and
                # re-seeding it would corrupt the resumed state.
                from repro.solve.warmstart import load_warm_population

                initial_population = load_warm_population(
                    warm_start,
                    problem,
                    population_size=getattr(
                        getattr(engine, "config", None), "population_size", None
                    ),
                )
            # Read after the restore: a resumed engine evaluates through the
            # evaluator, and so the ledger, that travelled in its checkpoint.
            ledger = engine.evaluator.ledger
            with ledger.phase("optimize", only_if_idle=True):
                history = _drive(
                    engine,
                    stopping,
                    observers,
                    checkpoint,
                    info,
                    ledger,
                    initial_population,
                )
        result = engine.result()
        result.algorithm = spec.name
        result.problem = problem.name
        result.history = history
        result.checkpoint = info
        result.design_space = problem.space.as_dict()
        result.ledger = ledger
        return result
    finally:
        # The built evaluator and any evaluator a restore brought back are
        # owned here; a caller's evaluator is left open.
        for owned in (evaluator, engine.evaluator):
            if owned is not user_evaluator:
                owned.close()
