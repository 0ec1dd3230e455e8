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
from repro.moo.robustness import RobustnessSettings, front_yields
from repro.photosynthesis.conditions import EnvironmentalCondition, PRESENT
from repro.photosynthesis.enzymes import ENZYME_NAMES, ENZYMES, natural_activities
from repro.photosynthesis.nitrogen import total_nitrogen, total_nitrogen_batch
from repro.photosynthesis.steady_state import EnzymeLimitedModel
from repro.problems.base import Problem
from repro.problems.batch import BatchEvaluation

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

    The evaluation engine is the
    :class:`~repro.photosynthesis.steady_state.EnzymeLimitedModel` of the
    chosen condition, kept as :attr:`model`.
    """

    def __init__(
        self,
        condition: EnvironmentalCondition = PRESENT,
        lower_scale: float = 0.05,
        upper_scale: float = 3.0,
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
        self.model = EnzymeLimitedModel(condition)
        self.natural = natural

    # ------------------------------------------------------------------
    def _evaluate_matrix(self, X: np.ndarray) -> BatchEvaluation:
        return BatchEvaluation(
            F=np.column_stack([-self.uptake_matrix(X), total_nitrogen_batch(X)])
        )

    # ------------------------------------------------------------------
    # Convenience accessors used by reports and benchmarks
    # ------------------------------------------------------------------
    def uptake(self, activities: np.ndarray) -> float:
        """Net CO2 uptake of an activity vector (natural sign)."""
        return self.model.co2_uptake(self.validate(activities))

    def uptake_matrix(self, X: np.ndarray) -> np.ndarray:
        """Net CO2 uptake of every row of an activity matrix (natural sign).

        One ``co2_uptake_batch`` call, bitwise equal to the row loop of
        :meth:`uptake`.  This is the matrix property function of the
        robustness yields.
        """
        return self.model.co2_uptake_batch(self.validate_matrix(X))

    def objective_matrix(self, name: str, X: np.ndarray) -> np.ndarray:
        """Reported objective ``name`` of every row; ``co2_uptake`` skips the nitrogen."""
        if name == "co2_uptake":
            return self.uptake_matrix(X)
        return super().objective_matrix(name, X)

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

    def _evaluate_matrix(self, X: np.ndarray) -> BatchEvaluation:
        reports = front_yields(X, self.model.co2_uptake_batch, settings=self.settings)
        uptake = [report.nominal_value for report in reports]
        yields = [report.yield_percentage for report in reports]
        return BatchEvaluation(
            F=np.column_stack(
                [np.negative(uptake), total_nitrogen_batch(X), np.negative(yields)]
            )
        )
