"""The unified result type returned by every solver.

Before the :mod:`repro.solve` redesign each engine returned its own ad-hoc
dataclass (``NSGA2Result``, ``MOEADResult``, ``PMO2Result``,
``ArchipelagoResult``) and every consumer — the designer pipeline, the canned
experiments, the CLI, the benchmarks — hand-wired per-solver glue around the
four shapes.  :class:`SolveResult` replaces all of them: one object carrying
the final population, the non-dominated archive (and therefore the front),
run counters, the evaluation-budget ledger, checkpoint information and a
free-form ``extras`` dictionary for per-solver by-products (PMO2's island
fronts, for example).  The old names were removed in 2.0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.moo.archive import ParetoArchive
from repro.moo.individual import Population

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.ledger import EvaluationLedger

__all__ = ["CheckpointInfo", "SolveResult"]


@dataclass
class CheckpointInfo:
    """Checkpoint bookkeeping of one :func:`repro.solve.solve` run.

    Attributes
    ----------
    directory:
        Directory the :class:`~repro.runtime.checkpoint.CheckpointManager`
        writes to.
    interval:
        Generations between checkpoints.
    restored_generation:
        Generation the run was restored to before stepping (``None`` when the
        run started fresh).
    saves:
        Number of checkpoints written during the run.
    last_path:
        Path of the most recent checkpoint written (``None`` when no save
        happened).
    """

    directory: str
    interval: int
    restored_generation: int | None = None
    saves: int = 0
    last_path: str | None = None


@dataclass
class SolveResult:
    """Outcome of a solver run — the one result type every engine returns.

    Attributes
    ----------
    algorithm:
        Registry name of the solver that produced the result (``"nsga2"``,
        ``"moead"``, ``"pmo2"``), stamped by :func:`repro.solve.solve`.
    problem:
        Human-readable name of the optimized problem.
    population:
        Final population (``None`` for solvers without a single population).
    archive:
        External non-dominated archive accumulated over the run; the
        :attr:`front` property is derived from it.
    generations, evaluations, migrations:
        Run counters (``migrations`` is 0 for single-population solvers).
    history:
        One dictionary per generation (generation index and evaluation
        counters) recorded by the driver loop; travels with checkpoints, so
        resumed runs return the full history.
    ledger:
        Evaluation-budget ledger of the run, when the evaluator carried one.
    checkpoint:
        :class:`CheckpointInfo` of the run (``None`` without checkpointing).
    design_space:
        JSON form of the optimized problem's decision box
        (:meth:`~repro.problems.base.Problem.design_space`, recorded into
        run manifests by :mod:`repro.core.artifacts`).
    extras:
        Per-solver by-products, read by key (PMO2's
        ``result.extras["island_fronts"]``).

    Example
    -------
    Every solver is consumed the same way::

        result = solve(problem, algorithm="pmo2", termination=100, seed=7)
        print(result.algorithm, result.generations, result.evaluations)
        objectives = result.front_objectives()
    """

    algorithm: str = ""
    problem: str = ""
    population: Population | None = None
    archive: ParetoArchive | None = None
    generations: int = 0
    evaluations: int = 0
    migrations: int = 0
    history: list[dict] = field(default_factory=list)
    ledger: "EvaluationLedger | None" = None
    checkpoint: CheckpointInfo | None = None
    design_space: dict | None = None
    extras: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def front(self) -> Population:
        """Non-dominated solutions accumulated in the archive."""
        if self.archive is None:
            return Population()
        return self.archive.to_population()

    def front_objectives(self) -> np.ndarray:
        """Objective matrix of the non-dominated front (a copy)."""
        if self.archive is None:
            return np.empty((0, 0))
        return np.array(self.archive.F)

    def front_decisions(self) -> np.ndarray:
        """Decision matrix of the non-dominated front (a copy)."""
        if self.archive is None:
            return np.empty((0, 0))
        return np.array(self.archive.X)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SolveResult(algorithm=%r, generations=%d, evaluations=%d, front=%d)" % (
            self.algorithm,
            self.generations,
            self.evaluations,
            len(self.archive) if self.archive is not None else 0,
        )
