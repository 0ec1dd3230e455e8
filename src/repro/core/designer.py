"""End-to-end robust metabolic pathway design pipeline.

This module glues the paper's methodology together (Sec. 2): run the PMO2
optimizer on a design problem, mine the resulting Pareto front with the
automatic trade-off selection criteria, and quantify the robustness (yield Γ)
of the selected designs.  It is the programmatic equivalent of the workflow
behind Tables 1–2 and Figures 1–4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError
from repro.moo.mining import closest_to_ideal, equally_spaced_selection, shadow_minima
from repro.moo.pmo2 import PMO2Config
from repro.moo.robustness import (
    PropertyMatrix,
    RobustnessSettings,
    front_yields,
    uptake_yield,
)
from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.evaluator import Evaluator, build_evaluator
from repro.problems.base import Problem
from repro.runtime.ledger import EvaluationLedger
from repro.solve import MaxGenerations, SolveResult, solve

__all__ = ["SelectedDesign", "DesignReport", "RobustPathwayDesigner"]


@dataclass
class SelectedDesign:
    """One design selected from the Pareto front by a named criterion.

    ``objectives`` are reported in natural units (maximized quantities
    positive), ``yield_percentage`` is the robustness yield Γ of Eq. 4 in
    percent (``None`` until the robustness analysis has been run).
    """

    criterion: str
    decision: np.ndarray
    objectives: np.ndarray
    yield_percentage: float | None = None


@dataclass
class DesignReport:
    """Outcome of a full design run (optimize → mine → robustness)."""

    problem_name: str
    front_objectives: np.ndarray
    front_decisions: np.ndarray
    selections: list[SelectedDesign]
    optimizer_result: SolveResult
    robustness_settings: RobustnessSettings | None = None
    front_yields: list[float] = field(default_factory=list)
    #: Evaluation-budget ledger of the whole pipeline (evaluations, cache
    #: hits, wall-clock per phase).
    ledger: EvaluationLedger | None = None

    def selection(self, criterion: str) -> SelectedDesign:
        """Look up a selected design by its criterion name."""
        for design in self.selections:
            if design.criterion == criterion:
                return design
        raise KeyError("no selection named %r" % criterion)

    def criteria(self) -> list[str]:
        """Names of all selection criteria present in the report."""
        return [design.criterion for design in self.selections]

    def summary(self, timing: bool = False) -> str:
        """Deterministic plain-text summary of the report.

        A pure function of the dataclass fields (no timestamps, sorted ledger
        phases, fixed column widths), so the CLI and the docs examples show
        the same text for the same report even when the run itself fanned out
        over worker processes.  ``timing=True`` adds the wall-clock column of
        the ledger, the one machine-dependent quantity.

        Example
        -------
        Print the front size, selection table and budget ledger::

            report = designer.design(generations=40)
            print(report.summary())
        """
        from repro.core.report import render_design_report

        return render_design_report(self, timing=timing)


class RobustPathwayDesigner:
    """The paper's design methodology as a single reusable object.

    Parameters
    ----------
    problem:
        The design problem (photosynthesis, Geobacter, or any
        :class:`~repro.problems.Problem`).
    pmo2_config:
        PMO2 configuration; defaults to the paper's adopted configuration with
        a migration interval scaled to the run length used here.
    seed:
        Master random seed.
    n_workers:
        Worker processes shared by the optimization batches and the
        robustness Monte-Carlo trials (1 = serial; results are identical
        either way).
    cache:
        Memoize objective evaluations on a quantized decision-vector hash
        (see :class:`~repro.runtime.evaluator.CachedEvaluator`); duplicated
        designs (elitist copies, broadcast migrants) then cost nothing.
        The robustness trials go through the same cache, so the nominal row
        of every selection (already evaluated by the optimizer) is a hit;
        the yields are the same with the cache on or off.
    checkpoint_dir:
        When given, the optimization phase checkpoints its state there every
        ``checkpoint_interval`` generations and :meth:`design` resumes from
        the latest checkpoint after a kill.
    evaluator:
        Explicit evaluator overriding the ``n_workers`` and ``cache`` knobs.

    Every evaluation of the pipeline -- optimization and robustness trials
    alike -- goes through the evaluator, so its ledger counts each one once.

    Example
    -------
    The full paper pipeline in four lines::

        from repro.photosynthesis.problem import PhotosynthesisProblem

        problem = PhotosynthesisProblem()
        with RobustPathwayDesigner(problem, seed=2011, n_workers=4) as designer:
            report = designer.design(generations=100,
                                     property_objective="co2_uptake")
        print(report.summary())
    """

    def __init__(
        self,
        problem: Problem,
        pmo2_config: PMO2Config | None = None,
        seed: int | None = None,
        n_workers: int = 1,
        cache: bool = False,
        checkpoint_dir: str | None = None,
        checkpoint_interval: int = 10,
        evaluator: Evaluator | None = None,
    ) -> None:
        self.problem = problem
        self.config = pmo2_config or PMO2Config()
        self.seed = seed
        self.n_workers = int(n_workers)
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_interval = int(checkpoint_interval)
        self.evaluator = (
            evaluator
            if evaluator is not None
            else build_evaluator(n_workers=self.n_workers, cache=cache)
        )

    @property
    def ledger(self) -> EvaluationLedger:
        """The evaluator's ledger: every evaluation of the pipeline."""
        return self.evaluator.ledger

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release evaluator resources (worker pools); idempotent."""
        self.evaluator.close()

    def __enter__(self) -> "RobustPathwayDesigner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def optimize(self, generations: int = 100) -> SolveResult:
        """Run PMO2 for a number of generations and return its result.

        Routed through the unified :func:`repro.solve.solve` surface.  With a
        ``checkpoint_dir``, ``generations`` is the total target and the run
        resumes from the latest checkpoint when one exists.
        """
        checkpoint = (
            CheckpointManager(self.checkpoint_dir, interval=self.checkpoint_interval)
            if self.checkpoint_dir is not None
            else None
        )
        return solve(
            self.problem,
            algorithm="pmo2",
            config=self.config,
            seed=self.seed,
            evaluator=self.evaluator,
            termination=MaxGenerations(generations),
            checkpoint=checkpoint,
        )

    def mine(self, result: SolveResult) -> list[SelectedDesign]:
        """Apply the Sec. 2.2 selection criteria to an optimization result."""
        objectives = result.front_objectives()
        decisions = result.front_decisions()
        if objectives.size == 0:
            raise ConfigurationError("the optimizer returned an empty front")
        selections: list[SelectedDesign] = []
        ideal_index = closest_to_ideal(objectives)
        selections.append(
            SelectedDesign(
                criterion="closest_to_ideal",
                decision=decisions[ideal_index],
                objectives=self.problem.reported_objectives(objectives[ideal_index]),
            )
        )
        for k, index in enumerate(shadow_minima(objectives)):
            name = self.problem.objective_names[k]
            sense = self.problem.objective_senses[k]
            criterion = ("max_%s" if sense < 0 else "min_%s") % name
            selections.append(
                SelectedDesign(
                    criterion=criterion,
                    decision=decisions[index],
                    objectives=self.problem.reported_objectives(objectives[index]),
                )
            )
        return selections

    def _property_matrix(self, objective: str) -> PropertyMatrix:
        """Matrix property function of the problem objective ``objective``.

        Maps an ``(n, n_var)`` decision matrix to the objective's natural
        (reported) values through the designer's evaluator, which computes
        that one objective, counts the rows in its ledger and fans them out
        over its workers.  An unknown name fails here, before any trial.
        """
        self.problem.objective_index(objective)

        def values(X: np.ndarray) -> np.ndarray:
            return self.evaluator.evaluate_objective(self.problem, objective, X)

        return values

    def assess_robustness(
        self,
        result: SolveResult,
        selections: list[SelectedDesign],
        property_objective: str,
        settings: RobustnessSettings | None = None,
        surface_points: int = 0,
    ) -> tuple[list[SelectedDesign], list[float]]:
        """Compute the yield Γ of the selected designs (and optionally more).

        Parameters
        ----------
        property_objective:
            Name of the problem objective whose value Γ protects (e.g.
            ``"co2_uptake"``); its trials are evaluated, and counted, by the
            designer's evaluator.
        surface_points:
            When positive, additionally compute the yield of this many
            equally spaced front points (the Fig. 3 Pareto surface data).
        """
        settings = settings or RobustnessSettings()
        property_matrix = self._property_matrix(property_objective)
        bounds = dict(clip_lower=self.problem.lower_bounds, clip_upper=self.problem.upper_bounds)
        updated: list[SelectedDesign] = []
        for design in selections:
            report = uptake_yield(design.decision, property_matrix, settings=settings, **bounds)
            updated.append(
                SelectedDesign(
                    criterion=design.criterion,
                    decision=design.decision,
                    objectives=design.objectives,
                    yield_percentage=report.yield_percentage,
                )
            )
        surface: list[float] = []
        if surface_points > 0:
            objectives = result.front_objectives()
            decisions = result.front_decisions()
            picks = equally_spaced_selection(objectives, surface_points)
            reports = front_yields(decisions[picks], property_matrix, settings=settings, **bounds)
            surface = [report.yield_percentage for report in reports]
        # Add the "max yield" selection the paper reports in Table 2: the
        # assessed design (selection or surface point) with the best Γ.
        best_yield = max(updated, key=lambda d: d.yield_percentage or 0.0)
        if surface:
            best_surface_position = int(np.argmax(surface))
            if surface[best_surface_position] > (best_yield.yield_percentage or 0.0):
                index = picks[best_surface_position]
                updated.append(
                    SelectedDesign(
                        criterion="max_yield",
                        decision=decisions[index],
                        objectives=self.problem.reported_objectives(objectives[index]),
                        yield_percentage=surface[best_surface_position],
                    )
                )
        if "max_yield" not in [d.criterion for d in updated]:
            updated.append(
                SelectedDesign(
                    criterion="max_yield",
                    decision=best_yield.decision,
                    objectives=best_yield.objectives,
                    yield_percentage=best_yield.yield_percentage,
                )
            )
        return updated, surface

    # ------------------------------------------------------------------
    def design(
        self,
        generations: int = 100,
        property_objective: str | None = None,
        robustness_settings: RobustnessSettings | None = None,
        surface_points: int = 0,
    ) -> DesignReport:
        """Full pipeline: optimize, mine, and (optionally) assess robustness.

        The robustness phase runs when ``property_objective`` names the
        problem objective whose value the yield Γ protects.
        """
        if property_objective is not None:
            self._property_matrix(property_objective)  # fail before optimizing
        result = self.optimize(generations)
        if result.ledger is not None and result.ledger is not self.ledger:
            # A checkpoint resume evaluated through the evaluator (and ledger)
            # that travelled with the optimizer state; fold that ledger into
            # ours, which the robustness trials are counted in next.
            self.ledger.merge(result.ledger)
        selections = self.mine(result)
        surface: list[float] = []
        if property_objective is not None:
            with self.ledger.phase("robustness"):
                selections, surface = self.assess_robustness(
                    result,
                    selections,
                    property_objective,
                    settings=robustness_settings,
                    surface_points=surface_points,
                )
        return DesignReport(
            problem_name=self.problem.name,
            front_objectives=result.front_objectives(),
            front_decisions=result.front_decisions(),
            selections=selections,
            optimizer_result=result,
            robustness_settings=robustness_settings,
            front_yields=surface,
            ledger=self.ledger,
        )
