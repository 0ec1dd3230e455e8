"""Multi-objective design problems for the photosynthesis case study.

The paper's plant experiment optimizes the 23-dimensional vector of enzyme
activities for two conflicting objectives:

* maximize the net CO2 uptake rate,
* minimize the total protein nitrogen invested in the enzymes.

:class:`PhotosynthesisProblem` expresses that task as a
:class:`~repro.problems.Problem` (minimization convention: the uptake is
negated).  :class:`RobustPhotosynthesisProblem` adds the robustness yield
``Γ`` as a third objective, which is the formulation behind the
three-dimensional Pareto surface of Figure 3.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.moo.robustness import RobustnessSettings, _robust_count, uptake_yield
from repro.photosynthesis.conditions import EnvironmentalCondition, PRESENT
from repro.photosynthesis.enzymes import ENZYME_NAMES, ENZYMES, natural_activities
from repro.photosynthesis.nitrogen import total_nitrogen, total_nitrogen_batch
from repro.photosynthesis.steady_state import EnzymeLimitedModel
from repro.problems.base import Problem
from repro.problems.batch import BatchEvaluation, EvaluationResult

__all__ = ["PhotosynthesisProblem", "RobustPhotosynthesisProblem"]


class PhotosynthesisProblem(Problem):
    """Maximize CO2 uptake and minimize protein nitrogen over 23 enzymes.

    Parameters
    ----------
    condition:
        Environmental scenario (one of the paper's six Ci / export
        combinations); defaults to "present, low export".
    lower_scale, upper_scale:
        Box bounds of each enzyme activity expressed as multiples of its
        natural activity.  The defaults (0.05x – 3x) cover the ranges the
        paper reports for its candidate designs.
    model:
        Evaluation engine; defaults to a fresh
        :class:`~repro.photosynthesis.steady_state.EnzymeLimitedModel` for the
        chosen condition.  Any object exposing ``co2_uptake(activities)`` can
        be substituted (e.g. the ODE model for small validation runs).
    """

    def __init__(
        self,
        condition: EnvironmentalCondition = PRESENT,
        lower_scale: float = 0.05,
        upper_scale: float = 3.0,
        model: EnzymeLimitedModel | None = None,
    ) -> None:
        if lower_scale <= 0 or upper_scale <= lower_scale:
            raise ConfigurationError("require 0 < lower_scale < upper_scale")
        natural = natural_activities()
        super().__init__(
            n_var=len(ENZYMES),
            n_obj=2,
            lower_bounds=natural * lower_scale,
            upper_bounds=natural * upper_scale,
            names=list(ENZYME_NAMES),
            objective_names=["co2_uptake", "nitrogen"],
            objective_senses=[-1, 1],
        )
        self.condition = condition
        self.model = model if model is not None else EnzymeLimitedModel(condition)
        self.natural = natural

    # ------------------------------------------------------------------
    def _evaluate_row(self, x: np.ndarray) -> EvaluationResult:
        activities = self.validate(x)
        uptake = self.model.co2_uptake(activities)
        nitrogen = total_nitrogen(activities)
        return EvaluationResult(
            objectives=np.array([-uptake, nitrogen]),
            info={"co2_uptake": uptake, "nitrogen": nitrogen},
        )

    def _evaluate_matrix(self, X: np.ndarray) -> BatchEvaluation:
        # Custom evaluation engines (e.g. the ODE model) only promise the
        # scalar co2_uptake interface; keep the row loop for those.
        if not hasattr(self.model, "co2_uptake_batch"):
            return super()._evaluate_matrix(X)
        uptake = self.model.co2_uptake_batch(X)
        nitrogen = total_nitrogen_batch(X)
        return BatchEvaluation(
            F=np.column_stack([-uptake, nitrogen]),
            info=tuple(
                {"co2_uptake": float(u), "nitrogen": float(n)}
                for u, n in zip(uptake, nitrogen)
            ),
        )

    # ------------------------------------------------------------------
    # Convenience accessors used by reports and benchmarks
    # ------------------------------------------------------------------
    def uptake(self, activities: np.ndarray) -> float:
        """Net CO2 uptake of an activity vector (natural sign)."""
        return self.model.co2_uptake(self.validate(activities))

    def nitrogen(self, activities: np.ndarray) -> float:
        """Total protein nitrogen of an activity vector (mg l⁻¹)."""
        return total_nitrogen(self.validate(activities))

    def natural_point(self) -> tuple[float, float]:
        """(uptake, nitrogen) of the natural leaf under this condition."""
        return self.uptake(self.natural), self.nitrogen(self.natural)

    def reported_front(self, objectives: np.ndarray) -> np.ndarray:
        """Convert a minimized front to (uptake, nitrogen) in natural units."""
        objectives = np.asarray(objectives, dtype=float)
        return np.column_stack([-objectives[:, 0], objectives[:, 1]])


class RobustPhotosynthesisProblem(Problem):
    """Three-objective variant: uptake, nitrogen and robustness yield.

    The robustness yield Γ of each candidate is estimated with a (small, for
    tractability) Monte-Carlo ensemble; the paper instead computes Γ after the
    bi-objective optimization, but exposing it as a third objective makes the
    trade-off surface of Figure 3 directly optimizable, which the ablation
    benchmarks exploit.
    """

    def __init__(
        self,
        condition: EnvironmentalCondition = PRESENT,
        lower_scale: float = 0.05,
        upper_scale: float = 3.0,
        robustness_trials: int = 60,
        epsilon: float = 0.05,
        seed: int = 0,
    ) -> None:
        natural = natural_activities()
        super().__init__(
            n_var=len(ENZYMES),
            n_obj=3,
            lower_bounds=natural * lower_scale,
            upper_bounds=natural * upper_scale,
            names=list(ENZYME_NAMES),
            objective_names=["co2_uptake", "nitrogen", "yield"],
            objective_senses=[-1, 1, -1],
        )
        self.condition = condition
        self.model = EnzymeLimitedModel(condition)
        self.settings = RobustnessSettings(
            epsilon=epsilon, global_trials=robustness_trials, seed=seed
        )
        self.natural = natural

    def _evaluate_row(self, x: np.ndarray) -> EvaluationResult:
        activities = self.validate(x)
        uptake = self.model.co2_uptake(activities)
        nitrogen = total_nitrogen(activities)
        report = uptake_yield(activities, self.model.co2_uptake, settings=self.settings)
        return EvaluationResult(
            objectives=np.array([-uptake, nitrogen, -report.yield_percentage]),
            info={
                "co2_uptake": uptake,
                "nitrogen": nitrogen,
                "yield": report.yield_percentage,
            },
        )

    def _evaluate_matrix(self, X: np.ndarray) -> BatchEvaluation:
        # Replicate the scalar path's Monte-Carlo stream exactly: one fresh
        # generator per row, seeded identically, drawing one global ensemble
        # (this is what uptake_yield does per call) — then push the nominal
        # designs and every trial through one batched uptake evaluation.
        trials = self.settings.global_trials
        model = self.settings.perturbation_model()
        stacked = np.empty((X.shape[0] * (1 + trials), X.shape[1]))
        for row, x in enumerate(X):
            offset = row * (1 + trials)
            stacked[offset] = x
            rng = np.random.default_rng(self.settings.seed)
            stacked[offset + 1 : offset + 1 + trials] = model.perturb_all(x, trials, rng)
        uptakes = self.model.co2_uptake_batch(stacked)
        nitrogen = total_nitrogen_batch(X)
        F = np.empty((X.shape[0], 3))
        info = []
        for row in range(X.shape[0]):
            offset = row * (1 + trials)
            nominal = float(uptakes[offset])
            perturbed = uptakes[offset + 1 : offset + 1 + trials]
            robust = _robust_count(
                nominal, perturbed, self.settings.epsilon, self.settings.relative_epsilon
            )
            yield_percentage = 100.0 * (robust / trials)
            F[row] = (-nominal, nitrogen[row], -yield_percentage)
            info.append(
                {
                    "co2_uptake": nominal,
                    "nitrogen": float(nitrogen[row]),
                    "yield": yield_percentage,
                }
            )
        return BatchEvaluation(F=F, info=tuple(info))
