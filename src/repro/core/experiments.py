"""Canned experiments reproducing every table and figure of the paper.

Each function is the programmatic version of one experiment of the evaluation
section; the benchmark modules under ``benchmarks/`` call these functions and
print the resulting rows, and the integration tests assert on the qualitative
shape of their outputs (who wins, which direction a trade-off slopes).

The computational budgets default to values that run in seconds-to-minutes on
a laptop; the paper's original budgets can be requested through the
``generations`` / ``population`` parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.geobacter.analysis import TradeOffPoint
    from repro.runtime.ledger import EvaluationLedger

from repro.core.designer import RobustPathwayDesigner, SelectedDesign
from repro.moo.individual import Individual
from repro.moo.metrics import coverage_report
from repro.moo.mining import equally_spaced_selection
from repro.moo.moead import MOEADConfig
from repro.moo.nsga2 import NSGA2Config
from repro.moo.archipelago import PMO2Config
from repro.moo.robustness import RobustnessSettings, front_yields
from repro.solve import MaxEvaluations, MaxGenerations, solve
from repro.photosynthesis.candidates import (
    CandidateDesign,
    candidate_a2,
    candidate_b,
    enzyme_ratio_profile,
)
from repro.photosynthesis.conditions import PAPER_CONDITIONS, REFERENCE_CONDITION, condition
from repro.photosynthesis.problem import PhotosynthesisProblem

__all__ = [
    "Table1Result",
    "run_table1",
    "Table2Result",
    "run_table2",
    "Figure1Result",
    "run_figure1",
    "Figure2Result",
    "run_figure2",
    "Figure3Result",
    "run_figure3",
    "Figure4Result",
    "run_figure4",
    "MigrationAblationResult",
    "run_migration_ablation",
]

# Default (laptop-friendly) budgets.
_DEFAULT_POPULATION = 40
_DEFAULT_GENERATIONS = 60


def _scaled_interval(generations: int) -> int:
    """The paper's 200-generation migration interval, cut to a third of shorter runs."""
    return max(1, min(PMO2Config.migration_interval, generations // 3))


def _pmo2_config(
    population: int, migration_interval: int, topology: str = "all-to-all"
) -> PMO2Config:
    """The paper's PMO2 configuration with the given island size and interval."""
    return PMO2Config(
        island_population_size=population,
        migration_interval=migration_interval,
        topology=topology,
    )


# ---------------------------------------------------------------------------
# Table 1 — Pareto-front quality: PMO2 vs MOEA/D
# ---------------------------------------------------------------------------
@dataclass
class Table1Result:
    """Rows of Table 1: per-algorithm front size, Rp, Gp and hypervolume."""

    rows: dict[str, dict[str, float]]
    evaluations: dict[str, int]
    fronts: dict[str, np.ndarray] = field(default_factory=dict)
    #: Per-algorithm decision matrices matching :attr:`fronts`.
    decisions: dict[str, np.ndarray] = field(default_factory=dict)
    #: Canonical front of the run (PMO2's, minimized objectives).
    front_objectives: np.ndarray | None = None
    #: Decision vectors of the canonical front.
    front_decisions: np.ndarray | None = None
    #: JSON form of the problem's design space (recorded into manifests).
    design_space: dict | None = None

    def winner(self, metric: str = "Vp") -> str:
        """Algorithm with the best value of ``metric``."""
        return max(self.rows, key=lambda name: self.rows[name][metric])


def run_table1(
    population: int = _DEFAULT_POPULATION,
    generations: int = _DEFAULT_GENERATIONS,
    seed: int = 2011,
    problem: PhotosynthesisProblem | None = None,
    n_workers: int = 1,
    cache: bool = False,
) -> Table1Result:
    """PMO2 versus MOEA/D at an equal objective-evaluation budget.

    The paper evaluates both algorithms on the photosynthesis problem at
    Ci = 270 µmol mol⁻¹ and maximal triose-P export of 3 mmol l⁻¹ s⁻¹, then
    compares the obtained fronts through the number of non-dominated points,
    the relative coverage Rp, the global coverage Gp and the hypervolume Vp.

    The evaluation budgets are matched through the optimizers' own counters
    (not a counting problem wrapper), so they stay exact when the
    evaluations fan out over ``n_workers`` processes.
    """
    base_problem = problem or PhotosynthesisProblem(REFERENCE_CONDITION)

    pmo2_result = solve(
        base_problem,
        algorithm="pmo2",
        config=_pmo2_config(population, _scaled_interval(generations)),
        seed=seed,
        termination=MaxGenerations(generations),
        n_workers=n_workers,
        cache=cache,
    )
    pmo2_front = pmo2_result.front_objectives()
    pmo2_decisions = pmo2_result.front_decisions()
    pmo2_evaluations = pmo2_result.evaluations

    moead_result = solve(
        base_problem,
        algorithm="moead",
        config=MOEADConfig(
            population_size=2 * population, neighborhood_size=max(4, population // 4)
        ),
        seed=seed + 1,
        termination=MaxEvaluations(pmo2_evaluations),
        n_workers=n_workers,
        cache=cache,
    )
    moead_front = moead_result.front_objectives()

    rows = coverage_report({"PMO2": pmo2_front, "MOEA-D": moead_front})
    return Table1Result(
        rows=rows,
        evaluations={"PMO2": pmo2_evaluations, "MOEA-D": moead_result.evaluations},
        fronts={"PMO2": pmo2_front, "MOEA-D": moead_front},
        decisions={
            "PMO2": pmo2_decisions,
            "MOEA-D": moead_result.front_decisions(),
        },
        front_objectives=pmo2_front,
        front_decisions=pmo2_decisions,
        design_space=base_problem.design_space(),
    )


# ---------------------------------------------------------------------------
# Table 2 — trade-off selections and their robustness yield
# ---------------------------------------------------------------------------
@dataclass
class Table2Result:
    """Rows of Table 2: selection criterion, uptake, nitrogen, yield."""

    selections: list[SelectedDesign]
    natural_uptake: float
    natural_nitrogen: float
    #: Full Pareto front of the optimization phase (minimized objectives).
    front_objectives: np.ndarray | None = None
    #: Decision vectors of the front.
    front_decisions: np.ndarray | None = None
    #: Evaluation-budget ledger of the optimize → mine → robustness pipeline.
    ledger: "EvaluationLedger | None" = None
    #: JSON form of the problem's design space (recorded into manifests).
    design_space: dict | None = None


def run_table2(
    population: int = _DEFAULT_POPULATION,
    generations: int = _DEFAULT_GENERATIONS,
    seed: int = 2011,
    robustness_trials: int = 300,
    surface_points: int = 20,
    n_workers: int = 1,
    cache: bool = False,
    checkpoint_dir: str | None = None,
    checkpoint_interval: int = 10,
) -> Table2Result:
    """Selection criteria (closest-to-ideal, shadow minima, max yield) + Γ.

    Follows the paper: optimize at the reference condition, select the
    closest-to-ideal and the shadow minima, then estimate the global yield of
    each selection with ε = 5 % and 10 % perturbations.  ``n_workers`` fans
    both the optimization and the robustness trials out over processes;
    ``checkpoint_dir`` makes the optimization phase resumable.
    """
    problem = PhotosynthesisProblem(REFERENCE_CONDITION)
    settings = RobustnessSettings(
        epsilon=0.05, global_trials=robustness_trials, magnitude=0.10, seed=seed
    )
    with RobustPathwayDesigner(
        problem,
        _pmo2_config(population, _scaled_interval(generations)),
        seed=seed,
        n_workers=n_workers,
        cache=cache,
        checkpoint_dir=checkpoint_dir,
        checkpoint_interval=checkpoint_interval,
    ) as designer:
        report = designer.design(
            generations=generations,
            property_objective="co2_uptake",
            robustness_settings=settings,
            surface_points=surface_points,
        )
    natural_uptake, natural_nitrogen = problem.natural_point()
    return Table2Result(
        selections=report.selections,
        natural_uptake=natural_uptake,
        natural_nitrogen=natural_nitrogen,
        front_objectives=report.front_objectives,
        front_decisions=report.front_decisions,
        ledger=report.ledger,
        design_space=problem.design_space(),
    )


# ---------------------------------------------------------------------------
# Figure 1 — Pareto fronts under the six Ci / export conditions
# ---------------------------------------------------------------------------
@dataclass
class Figure1Result:
    """Fronts of Figure 1 plus the named candidates B and A2."""

    fronts: dict[tuple[str, str], np.ndarray]
    natural_points: dict[tuple[str, str], tuple[float, float]]
    candidate_b: CandidateDesign
    candidate_a2: CandidateDesign
    #: Canonical front (the paper's "present, low export" condition) in
    #: minimized objective units, for the run-artifact layer.
    front_objectives: np.ndarray | None = None
    #: Decision vectors of the canonical front.
    front_decisions: np.ndarray | None = None
    #: JSON form of the problem's design space (recorded into manifests).
    design_space: dict | None = None

    def max_uptake(self, era: str, export: str) -> float:
        """Maximum CO2 uptake achieved under one condition."""
        return float(self.fronts[(era, export)][:, 0].max())


def run_figure1(
    population: int = _DEFAULT_POPULATION,
    generations: int = _DEFAULT_GENERATIONS,
    seed: int = 2011,
    conditions: dict | None = None,
    n_workers: int = 1,
    cache: bool = False,
) -> Figure1Result:
    """Optimize the leaf under every Ci / triose-P export combination."""
    chosen = conditions or PAPER_CONDITIONS
    fronts: dict[tuple[str, str], np.ndarray] = {}
    naturals: dict[tuple[str, str], tuple[float, float]] = {}
    decisions_low_present: np.ndarray | None = None
    front_low_present: np.ndarray | None = None
    raw_front_low_present: np.ndarray | None = None
    for offset, (key, environmental_condition) in enumerate(sorted(chosen.items())):
        problem = PhotosynthesisProblem(environmental_condition)
        result = solve(
            problem,
            algorithm="pmo2",
            config=_pmo2_config(population, _scaled_interval(generations)),
            seed=seed + offset,
            termination=MaxGenerations(generations),
            n_workers=n_workers,
            cache=cache,
        )
        raw_front = result.front_objectives()
        front = problem.reported_front(raw_front)
        fronts[key] = front
        naturals[key] = problem.natural_point()
        if key == ("present", "low"):
            decisions_low_present = result.front_decisions()
            front_low_present = front
            raw_front_low_present = raw_front
    artifact_decisions = decisions_low_present
    if front_low_present is None or decisions_low_present is None:
        # Candidates are defined at the paper's "present, low export"
        # condition; when a custom condition subset omits it, fall back to the
        # first optimized condition.
        first_key = next(iter(fronts))
        front_low_present = fronts[first_key]
        problem = PhotosynthesisProblem(chosen[first_key])
        decisions_low_present = np.array(
            [problem.natural.copy() for _ in range(front_low_present.shape[0])]
        )
        # reported_front is an involution (sense flips), so applying it again
        # recovers the minimized objectives for the canonical-front artifact.
        # The fabricated natural-leaf decisions above exist only so the
        # candidate mining has vectors to return; they do NOT produce these
        # objectives, so the artifact records no decisions on this path.
        raw_front_low_present = problem.reported_front(front_low_present)
        artifact_decisions = None
    natural_uptake = naturals.get(("present", "low"), next(iter(naturals.values())))[0]
    b = candidate_b(front_low_present, decisions_low_present, natural_uptake)
    a2 = candidate_a2(front_low_present, decisions_low_present, natural_uptake)
    return Figure1Result(
        fronts=fronts,
        natural_points=naturals,
        candidate_b=b,
        candidate_a2=a2,
        front_objectives=raw_front_low_present,
        front_decisions=artifact_decisions,
        design_space=problem.design_space(),
    )


# ---------------------------------------------------------------------------
# Figure 2 — enzyme profile of candidate B
# ---------------------------------------------------------------------------
@dataclass
class Figure2Result:
    """Enzyme-by-enzyme ratio profile of candidate B versus the natural leaf."""

    candidate: CandidateDesign
    ratios: dict[str, float]
    candidate_nitrogen: float
    natural_nitrogen: float
    #: Candidate B as a one-point front (minimized objectives), for artifacts.
    front_objectives: np.ndarray | None = None
    #: Candidate B's enzyme-activity vector.
    front_decisions: np.ndarray | None = None
    #: JSON form of the problem's design space (recorded into manifests).
    design_space: dict | None = None


def run_figure2(
    population: int = _DEFAULT_POPULATION,
    generations: int = _DEFAULT_GENERATIONS,
    seed: int = 2011,
    n_workers: int = 1,
    cache: bool = False,
) -> Figure2Result:
    """Candidate B's activity ratios relative to the natural leaf."""
    figure1 = run_figure1(
        population=population,
        generations=generations,
        seed=seed,
        conditions={("present", "low"): condition("present", "low")},
        n_workers=n_workers,
        cache=cache,
    )
    candidate = figure1.candidate_b
    from repro.photosynthesis.nitrogen import NATURAL_NITROGEN

    return Figure2Result(
        candidate=candidate,
        ratios=enzyme_ratio_profile(candidate.activities),
        candidate_nitrogen=candidate.nitrogen,
        natural_nitrogen=NATURAL_NITROGEN,
        front_objectives=np.array([[-candidate.uptake, candidate.nitrogen]]),
        front_decisions=np.asarray(candidate.activities, dtype=float).reshape(1, -1),
        design_space=figure1.design_space,
    )


# ---------------------------------------------------------------------------
# Figure 3 — robustness surface over the Pareto front
# ---------------------------------------------------------------------------
@dataclass
class Figure3Result:
    """Robustness (yield Γ) of points sampled along the Pareto front."""

    uptake: np.ndarray
    nitrogen: np.ndarray
    yields: np.ndarray
    #: Sampled front points in minimized objective units, for artifacts.
    front_objectives: np.ndarray | None = None
    #: Decision vectors of the sampled points.
    front_decisions: np.ndarray | None = None
    #: JSON form of the problem's design space (recorded into manifests).
    design_space: dict | None = None

    def extreme_vs_interior(self) -> tuple[float, float]:
        """Mean yield of the two front extremes vs the interior points."""
        order = np.argsort(self.uptake)
        extreme_indices = [order[0], order[-1]]
        interior_indices = [i for i in range(len(self.uptake)) if i not in extreme_indices]
        extreme = float(np.mean(self.yields[extreme_indices]))
        interior = float(np.mean(self.yields[interior_indices])) if interior_indices else extreme
        return extreme, interior


def run_figure3(
    population: int = _DEFAULT_POPULATION,
    generations: int = _DEFAULT_GENERATIONS,
    seed: int = 2011,
    surface_points: int = 25,
    robustness_trials: int = 200,
    n_workers: int = 1,
    cache: bool = False,
    checkpoint_dir: str | None = None,
    checkpoint_interval: int = 10,
) -> Figure3Result:
    """Yield Γ of equally spaced Pareto-optimal designs (the Fig. 3 surface)."""
    problem = PhotosynthesisProblem(REFERENCE_CONDITION)
    settings = RobustnessSettings(
        epsilon=0.05, global_trials=robustness_trials, magnitude=0.10, seed=seed
    )
    result = solve(
        problem,
        algorithm="pmo2",
        config=_pmo2_config(population, _scaled_interval(generations)),
        seed=seed,
        termination=MaxGenerations(generations),
        n_workers=n_workers,
        cache=cache,
        checkpoint_dir=checkpoint_dir,
        checkpoint_interval=checkpoint_interval,
    )
    objectives = result.front_objectives()
    decisions = result.front_decisions()
    picks = equally_spaced_selection(objectives, surface_points)
    reports = front_yields(
        decisions[picks],
        problem.uptake_matrix,
        settings=settings,
        clip_lower=problem.lower_bounds,
        clip_upper=problem.upper_bounds,
    )
    return Figure3Result(
        uptake=-objectives[picks, 0],
        nitrogen=objectives[picks, 1],
        yields=np.array([report.yield_percentage for report in reports]),
        front_objectives=objectives[picks],
        front_decisions=decisions[picks],
        design_space=problem.design_space(),
    )


# ---------------------------------------------------------------------------
# Figure 4 — Geobacter electron versus biomass production
# ---------------------------------------------------------------------------
@dataclass
class Figure4Result:
    """Figure 4 artefacts: labelled trade-off points and violation reduction."""

    points: list[TradeOffPoint]
    front: np.ndarray
    initial_violation: float
    best_violation: float
    #: Raw minimized objective vectors of the front, for artifacts.
    front_objectives: np.ndarray | None = None
    #: Decision (flux) vectors of the front.
    front_decisions: np.ndarray | None = None
    #: JSON form of the problem's design space (recorded into manifests).
    design_space: dict | None = None

    @property
    def reduction_factor(self) -> float:
        """Final-to-initial steady-state violation ratio (paper: ≈ 1/26)."""
        from repro.geobacter.analysis import violation_reduction

        return violation_reduction(self.initial_violation, self.best_violation)


def run_figure4(
    population: int = _DEFAULT_POPULATION,
    generations: int = 30,
    seed: int = 2011,
    n_seeds: int = 12,
    n_workers: int = 1,
    cache: bool = False,
) -> Figure4Result:
    """Optimize electron and biomass production of the synthetic Geobacter model."""
    # Imported here: the FBA model loads scipy, which no other experiment needs.
    from repro.fba.batch import steady_state_violations
    from repro.geobacter.analysis import representative_points
    from repro.geobacter.problem import GeobacterDesignProblem

    problem = GeobacterDesignProblem()
    rng = np.random.default_rng(seed)
    result = solve(
        problem,
        algorithm="nsga2",
        config=NSGA2Config(population_size=population),
        seed=seed,
        termination=MaxGenerations(generations),
        n_workers=n_workers,
        cache=cache,
        initial_population=problem.seeded_population(population, rng, n_seeds=n_seeds),
    )
    front = result.front
    objectives = np.array(front.F)
    production = problem.production_front(objectives)
    violations = steady_state_violations(problem.model, front.X, problem.violation_norm)
    points = representative_points(production, violations, count=5)
    initial_violation = problem.random_guess_violation(seed=seed)
    best_violation = float(np.min(violations)) if violations.size else 0.0
    return Figure4Result(
        points=points,
        front=production,
        initial_violation=initial_violation,
        best_violation=best_violation,
        front_objectives=objectives,
        front_decisions=np.array(front.X),
        design_space=problem.design_space(),
    )


# ---------------------------------------------------------------------------
# Ablation — migration on versus off (PMO2's island claim)
# ---------------------------------------------------------------------------
@dataclass
class MigrationAblationResult:
    """Hypervolume of PMO2 with migration versus two isolated islands."""

    hypervolume_with_migration: float
    hypervolume_without_migration: float
    #: Front of the with-migration run (minimized objectives), for artifacts.
    front_objectives: np.ndarray | None = None
    #: Decision vectors of that front.
    front_decisions: np.ndarray | None = None
    #: JSON form of the problem's design space (recorded into manifests).
    design_space: dict | None = None

    @property
    def migration_helps(self) -> bool:
        """``True`` when broadcast migration is at least competitive with isolation.

        A 10 % tolerance absorbs the run-to-run noise of the short budgets the
        ablation uses; the benchmark prints the raw hypervolumes so larger
        budgets can be compared exactly.
        """
        return self.hypervolume_with_migration >= 0.90 * self.hypervolume_without_migration


def run_migration_ablation(
    population: int = 24,
    generations: int = 40,
    seed: int = 2011,
    n_workers: int = 1,
    cache: bool = False,
) -> MigrationAblationResult:
    """Compare PMO2's broadcast migration against isolated islands."""
    problem = PhotosynthesisProblem(REFERENCE_CONDITION)
    interval = max(1, generations // 4)
    with_migration, without_migration = (
        solve(
            problem,
            algorithm="pmo2",
            config=_pmo2_config(population, interval, topology),
            seed=seed,
            termination=MaxGenerations(generations),
            n_workers=n_workers,
            cache=cache,
        )
        for topology in ("all-to-all", "isolated")
    )
    report = coverage_report(
        {
            "migration": with_migration.front_objectives(),
            "isolated": without_migration.front_objectives(),
        }
    )
    return MigrationAblationResult(
        hypervolume_with_migration=report["migration"]["Vp"],
        hypervolume_without_migration=report["isolated"]["Vp"],
        front_objectives=with_migration.front_objectives(),
        front_decisions=with_migration.front_decisions(),
        design_space=problem.design_space(),
    )


# ---------------------------------------------------------------------------
# Registry entries — every canned experiment as a named, parameterized,
# artifact-producing entry (see repro.core.registry and `python -m repro`).
# ---------------------------------------------------------------------------
from repro.core.artifacts import front_payload  # noqa: E402
from repro.core.registry import REGISTRY, Experiment, Parameter  # noqa: E402
from repro.core.report import format_table, render_selections  # noqa: E402

_PHOTO_OBJECTIVES = dict(
    objective_names=["co2_uptake", "nitrogen"], objective_senses=[-1, 1]
)
_GEO_OBJECTIVES = dict(
    objective_names=["electron_production", "biomass_production"],
    objective_senses=[-1, -1],
)


def _front(result, metadata: dict, label: str | None = None, info=None) -> dict | None:
    """Canonical front payload from a result's uniform front fields."""
    if result.front_objectives is None:
        return None
    return front_payload(
        result.front_objectives,
        result.front_decisions,
        label=label,
        info=info(result) if callable(info) else info,
        **metadata,
    )


def _core_parameters(
    population: int = _DEFAULT_POPULATION, generations: int = _DEFAULT_GENERATIONS
) -> list[Parameter]:
    """The budget/seed/runtime knobs every canned experiment shares."""
    return [
        Parameter("population", int, population, "population per island/algorithm"),
        Parameter("generations", int, generations, "generations to run"),
        Parameter("seed", int, 2011, "master random seed (runs are deterministic)"),
        Parameter("n_workers", int, 1, "worker processes for evaluation fan-out"),
        Parameter("cache", bool, False, "memoize evaluations on a quantized hash"),
    ]


_CHECKPOINT_PARAMETERS = [
    Parameter("checkpoint_dir", str, None, "directory for periodic checkpoints"),
    Parameter("checkpoint_interval", int, 10, "generations between checkpoints"),
]


def _payload_table1(result: Table1Result) -> dict:
    return {
        "rows": result.rows,
        "evaluations": result.evaluations,
        "fronts": {name: front.tolist() for name, front in result.fronts.items()},
        "winner_hypervolume": result.winner("Vp"),
    }


def _render_table1(result: Table1Result) -> str:
    rows = [
        [name, row["points"], row["Rp"], row["Gp"], row["Vp"]]
        for name, row in sorted(result.rows.items())
    ]
    table = format_table(["algorithm", "points", "Rp", "Gp", "Vp"], rows)
    return "Table 1 — front quality at an equal evaluation budget\n%s" % table


def _payload_table2(result: Table2Result) -> dict:
    return {
        "selections": [
            {
                "criterion": design.criterion,
                "objectives": design.objectives.tolist(),
                "yield_percentage": design.yield_percentage,
                "decision": design.decision.tolist(),
            }
            for design in result.selections
        ],
        "natural_uptake": result.natural_uptake,
        "natural_nitrogen": result.natural_nitrogen,
    }


def _render_table2(result: Table2Result) -> str:
    lines = [
        "Table 2 — trade-off selections and robustness yield",
        render_selections(result.selections),
        "natural leaf: uptake %.3f, nitrogen %.3f"
        % (result.natural_uptake, result.natural_nitrogen),
    ]
    return "\n".join(lines)


def _payload_figure1(result: Figure1Result) -> dict:
    return {
        "fronts": {
            "%s/%s" % key: front.tolist() for key, front in result.fronts.items()
        },
        "natural_points": {
            "%s/%s" % key: list(point) for key, point in result.natural_points.items()
        },
        "candidates": {
            candidate.label: {
                "uptake": candidate.uptake,
                "nitrogen": candidate.nitrogen,
                "nitrogen_fraction_of_natural": candidate.nitrogen_fraction_of_natural,
                "activities": candidate.activities.tolist(),
            }
            for candidate in (result.candidate_b, result.candidate_a2)
        },
    }


def _render_figure1(result: Figure1Result) -> str:
    rows = []
    for key, front in sorted(result.fronts.items()):
        natural_uptake, _ = result.natural_points[key]
        rows.append(
            ["%s/%s" % key, front.shape[0], float(front[:, 0].max()), natural_uptake]
        )
    table = format_table(["condition", "front size", "max uptake", "natural uptake"], rows)
    return "Figure 1 — fronts under six Ci/export conditions\n%s" % table


def _payload_figure2(result: Figure2Result) -> dict:
    return {
        "ratios": result.ratios,
        "candidate_nitrogen": result.candidate_nitrogen,
        "natural_nitrogen": result.natural_nitrogen,
        "candidate_label": result.candidate.label,
    }


def _render_figure2(result: Figure2Result) -> str:
    rows = [[name, ratio] for name, ratio in sorted(result.ratios.items())]
    table = format_table(["enzyme", "activity ratio vs natural"], rows)
    return "Figure 2 — enzyme profile of candidate %s\n%s\nnitrogen: %.3f (natural %.3f)" % (
        result.candidate.label,
        table,
        result.candidate_nitrogen,
        result.natural_nitrogen,
    )


def _payload_figure3(result: Figure3Result) -> dict:
    extreme, interior = result.extreme_vs_interior()
    return {
        "uptake": result.uptake.tolist(),
        "nitrogen": result.nitrogen.tolist(),
        "yields": result.yields.tolist(),
        "extreme_mean_yield": extreme,
        "interior_mean_yield": interior,
    }


def _render_figure3(result: Figure3Result) -> str:
    rows = [
        [float(u), float(n), float(y)]
        for u, n, y in zip(result.uptake, result.nitrogen, result.yields)
    ]
    table = format_table(["uptake", "nitrogen", "yield %"], rows)
    extreme, interior = result.extreme_vs_interior()
    return (
        "Figure 3 — robustness surface over the Pareto front\n%s\n"
        "mean yield: extremes %.3f %%, interior %.3f %%" % (table, extreme, interior)
    )


def _payload_figure4(result: Figure4Result) -> dict:
    return {
        "points": [
            {
                "label": point.label,
                "electron_production": point.electron_production,
                "biomass_production": point.biomass_production,
            }
            for point in result.points
        ],
        "production_front": result.front.tolist(),
        "initial_violation": result.initial_violation,
        "best_violation": result.best_violation,
        "reduction_factor": result.reduction_factor,
    }


def _render_figure4(result: Figure4Result) -> str:
    rows = [
        [point.label, point.electron_production, point.biomass_production]
        for point in result.points
    ]
    table = format_table(["point", "electrons", "biomass"], rows)
    return (
        "Figure 4 — Geobacter electron vs biomass trade-off\n%s\n"
        "steady-state violation: %.3f -> %.3f (factor %.4f)"
        % (table, result.initial_violation, result.best_violation, result.reduction_factor)
    )


def _payload_ablation(result: MigrationAblationResult) -> dict:
    return {
        "hypervolume_with_migration": result.hypervolume_with_migration,
        "hypervolume_without_migration": result.hypervolume_without_migration,
        "migration_helps": result.migration_helps,
    }


def _render_ablation(result: MigrationAblationResult) -> str:
    table = format_table(
        ["topology", "hypervolume"],
        [
            ["all-to-all", result.hypervolume_with_migration],
            ["isolated", result.hypervolume_without_migration],
        ],
    )
    return "Migration ablation — broadcast vs isolated islands\n%s\nmigration helps: %s" % (
        table,
        result.migration_helps,
    )


def _figure3_info(result: Figure3Result) -> list[dict]:
    return [{"yield_percentage": float(value)} for value in result.yields]


REGISTRY.register(
    Experiment(
        name="photosynthesis-table1",
        title="Front quality: PMO2 vs MOEA/D (Table 1)",
        description=(
            "Runs PMO2 and MOEA/D on the photosynthesis design problem at an "
            "equal objective-evaluation budget and compares the obtained "
            "fronts through the paper's indicators: front size, relative "
            "coverage Rp, global coverage Gp and hypervolume Vp."
        ),
        reference="Table 1",
        function=run_table1,
        parameters=tuple(_core_parameters()),
        front=lambda result: _front(result, _PHOTO_OBJECTIVES, label="PMO2"),
        payload=_payload_table1,
        render=_render_table1,
    )
)

REGISTRY.register(
    Experiment(
        name="photosynthesis-table2",
        title="Trade-off selections and robustness yield (Table 2)",
        description=(
            "The full optimize -> mine -> robustness pipeline at the reference "
            "condition: select the closest-to-ideal design and the shadow "
            "minima from the front, then estimate each selection's global "
            "robustness yield with epsilon-perturbation Monte-Carlo trials."
        ),
        reference="Table 2",
        function=run_table2,
        parameters=tuple(
            _core_parameters()
            + [
                Parameter("robustness_trials", int, 300, "Monte-Carlo trials per design"),
                Parameter("surface_points", int, 20, "extra front points assessed"),
            ]
            + _CHECKPOINT_PARAMETERS
        ),
        front=lambda result: _front(result, _PHOTO_OBJECTIVES),
        payload=_payload_table2,
        render=_render_table2,
        supports_checkpoint=True,
        artifact_names=(
            "manifest.json",
            "front.json",
            "front.csv",
            "result.json",
            "ledger.json",
        ),
    )
)

REGISTRY.register(
    Experiment(
        name="photosynthesis-figure1",
        title="Pareto fronts under six Ci/export conditions (Figure 1)",
        description=(
            "Optimizes the 23-enzyme leaf under every combination of "
            "atmospheric CO2 era (past/present/future) and triose-P export "
            "rate (low/high), and mines candidates B and A2 at the paper's "
            "reference condition."
        ),
        reference="Figure 1",
        function=run_figure1,
        parameters=tuple(_core_parameters()),
        front=lambda result: _front(result, _PHOTO_OBJECTIVES, label="present/low"),
        payload=_payload_figure1,
        render=_render_figure1,
    )
)

REGISTRY.register(
    Experiment(
        name="photosynthesis-figure2",
        title="Enzyme profile of candidate B (Figure 2)",
        description=(
            "Re-derives candidate B at the reference condition and reports "
            "its enzyme-by-enzyme activity ratios relative to the natural "
            "leaf (Rubisco funds the redesign)."
        ),
        reference="Figure 2",
        function=run_figure2,
        parameters=tuple(_core_parameters()),
        front=lambda result: _front(result, _PHOTO_OBJECTIVES, label="candidate-B"),
        payload=_payload_figure2,
        render=_render_figure2,
    )
)

REGISTRY.register(
    Experiment(
        name="photosynthesis-figure3",
        title="Robustness surface over the Pareto front (Figure 3)",
        description=(
            "Samples equally spaced designs along the Pareto front and "
            "computes the robustness yield of each, reproducing the "
            "fragile-extremes / robust-interior surface of Figure 3."
        ),
        reference="Figure 3",
        function=run_figure3,
        parameters=tuple(
            _core_parameters()
            + [
                Parameter("surface_points", int, 25, "front designs assessed"),
                Parameter("robustness_trials", int, 200, "Monte-Carlo trials per design"),
            ]
            + _CHECKPOINT_PARAMETERS
        ),
        front=lambda result: _front(result, _PHOTO_OBJECTIVES, info=_figure3_info),
        payload=_payload_figure3,
        render=_render_figure3,
        supports_checkpoint=True,
    )
)

REGISTRY.register(
    Experiment(
        name="geobacter-figure4",
        title="Geobacter electron vs biomass trade-off (Figure 4)",
        description=(
            "Optimizes electron and biomass production of the synthetic "
            "Geobacter sulfurreducens model with NSGA-II seeded from the "
            "flux polytope, and labels five representative trade-off points."
        ),
        reference="Figure 4",
        function=run_figure4,
        parameters=tuple(
            _core_parameters(generations=30)
            + [Parameter("n_seeds", int, 12, "flux-polytope seed individuals")]
        ),
        front=lambda result: _front(result, _GEO_OBJECTIVES),
        payload=_payload_figure4,
        render=_render_figure4,
    )
)

REGISTRY.register(
    Experiment(
        name="migration-ablation",
        title="Broadcast migration vs isolated islands (ablation)",
        description=(
            "Runs PMO2 with its all-to-all broadcast migration and with "
            "isolated islands at the same budget, comparing the final "
            "hypervolumes (the island-model claim of Sec. 2.1)."
        ),
        reference="Sec. 2.1 ablation",
        function=run_migration_ablation,
        parameters=tuple(_core_parameters(population=24, generations=40)),
        front=lambda result: _front(result, _PHOTO_OBJECTIVES, label="all-to-all"),
        payload=_payload_ablation,
        render=_render_ablation,
    )
)
