"""Robustness framework (Sec. 2.3 of the paper).

The paper quantifies how well a designed property (e.g. the CO2 uptake rate of
an enzyme partition) persists under perturbation of the design variables:

* the **robustness condition** ``rho(x, x*, f, eps)`` is 1 when the property
  computed on the perturbed design ``x*`` stays within ``eps`` of the nominal
  value ``f(x)`` and 0 otherwise (Eq. 3);
* the **yield** ``Gamma(x, f, eps)`` is the fraction of robust trials over a
  Monte-Carlo ensemble ``T`` of perturbed designs (Eq. 4).

Two ensembles are used in the paper:

* a **global analysis** perturbing every variable simultaneously
  (5000 trials, up to 10 % perturbation per variable),
* a **local analysis** perturbing one variable at a time
  (200 trials per variable).

Both are reproduced here.  Every yield in the package is computed by one
routine: each nominal design is stacked with its ensemble and the whole stack
goes through a single call of a *matrix* property function, ``(n, n_var) ->
(n,)`` -- the same contract as :meth:`~repro.problems.Problem.evaluate_matrix`.
:func:`uptake_yield`, :func:`front_yields` and :func:`local_yields` only differ
in how they draw the ensembles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "robustness_condition",
    "PerturbationModel",
    "RobustnessSettings",
    "RobustnessReport",
    "PropertyMatrix",
    "uptake_yield",
    "local_yields",
    "front_yields",
]

#: A protected property evaluated on every row of a decision matrix:
#: ``(n, n_var) -> (n,)``, in natural units (not the minimized objective).
PropertyMatrix = Callable[[np.ndarray], np.ndarray]


def robustness_condition(
    nominal_value: float,
    perturbed_value: float,
    epsilon: float,
    relative: bool = True,
) -> int:
    """Robustness condition ``rho`` (Eq. 3).

    Parameters
    ----------
    nominal_value:
        Property value of the unperturbed design, ``f(x)``.
    perturbed_value:
        Property value of the perturbed design, ``f(x*)``.
    epsilon:
        Robustness threshold.  With ``relative=True`` (the paper's convention:
        "epsilon = 5 % of the nominal uptake rate") the threshold is
        ``epsilon * |nominal_value|``; otherwise it is used as an absolute
        tolerance.
    """
    if epsilon < 0:
        raise ConfigurationError("epsilon must be non-negative")
    threshold = epsilon * abs(nominal_value) if relative else epsilon
    return 1 if abs(nominal_value - perturbed_value) <= threshold else 0


@dataclass
class PerturbationModel:
    """How trial designs are generated around a nominal design.

    Attributes
    ----------
    magnitude:
        Maximum relative perturbation of each variable (the paper fixes a
        "maximum perturbation of 10 % on each enzyme concentration").
    distribution:
        ``"uniform"`` draws multiplicative factors uniformly in
        ``[1 - magnitude, 1 + magnitude]``; ``"normal"`` draws Gaussian factors
        with standard deviation ``magnitude / 2`` truncated at ``magnitude``.
    clip_lower, clip_upper:
        Optional box bounds applied to the perturbed designs.
    """

    magnitude: float = 0.10
    distribution: str = "uniform"
    clip_lower: np.ndarray | None = None
    clip_upper: np.ndarray | None = None

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent settings."""
        if not 0.0 < self.magnitude < 1.0:
            raise ConfigurationError("perturbation magnitude must be in (0, 1)")
        if self.distribution not in ("uniform", "normal"):
            raise ConfigurationError("distribution must be 'uniform' or 'normal'")

    def _factors(self, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        if self.distribution == "uniform":
            return rng.uniform(1.0 - self.magnitude, 1.0 + self.magnitude, size=shape)
        draws = rng.normal(1.0, self.magnitude / 2.0, size=shape)
        return np.clip(draws, 1.0 - self.magnitude, 1.0 + self.magnitude)

    def _clip(self, trials: np.ndarray) -> np.ndarray:
        if self.clip_lower is not None:
            trials = np.maximum(trials, self.clip_lower)
        if self.clip_upper is not None:
            trials = np.minimum(trials, self.clip_upper)
        return trials

    def perturb_all(
        self, x: np.ndarray, n_trials: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Global ensemble: perturb every variable of every trial."""
        self.validate()
        x = np.asarray(x, dtype=float)
        factors = self._factors((n_trials, x.size), rng)
        return self._clip(x[None, :] * factors)

    def perturb_one(
        self, x: np.ndarray, variable: int, n_trials: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Local ensemble: perturb only ``variable`` in every trial."""
        self.validate()
        x = np.asarray(x, dtype=float)
        if variable < 0 or variable >= x.size:
            raise ConfigurationError("variable index out of range")
        trials = np.tile(x, (n_trials, 1))
        trials[:, variable] = x[variable] * self._factors((n_trials,), rng)
        return self._clip(trials)


@dataclass
class RobustnessSettings:
    """Settings of a robustness analysis run (paper defaults).

    Validated at construction: both trial counts must be at least 1,
    ``epsilon`` non-negative, ``magnitude`` in (0, 1) and ``distribution``
    ``"uniform"`` or ``"normal"``; anything else raises
    :class:`ConfigurationError` before any work is done.
    """

    epsilon: float = 0.05
    relative_epsilon: bool = True
    global_trials: int = 5000
    local_trials: int = 200
    magnitude: float = 0.10
    distribution: str = "uniform"
    seed: int | None = None

    def __post_init__(self) -> None:
        for name in ("global_trials", "local_trials"):
            if getattr(self, name) < 1:
                raise ConfigurationError(
                    "%s must be at least 1, got %r" % (name, getattr(self, name))
                )
        if self.epsilon < 0:
            raise ConfigurationError("epsilon must be non-negative, got %r" % self.epsilon)
        self.perturbation_model().validate()

    def perturbation_model(
        self,
        clip_lower: np.ndarray | None = None,
        clip_upper: np.ndarray | None = None,
    ) -> PerturbationModel:
        """Build the :class:`PerturbationModel` implied by these settings."""
        return PerturbationModel(
            magnitude=self.magnitude,
            distribution=self.distribution,
            clip_lower=clip_lower,
            clip_upper=clip_upper,
        )


@dataclass
class RobustnessReport:
    """Result of a yield computation."""

    nominal_value: float
    yield_fraction: float
    n_trials: int
    epsilon: float
    robust_trials: int
    perturbed_values: np.ndarray = field(repr=False, default_factory=lambda: np.empty(0))

    @property
    def yield_percentage(self) -> float:
        """Yield expressed in percent (the unit used by the paper's Table 2)."""
        return 100.0 * self.yield_fraction


def _yields(
    decisions: np.ndarray,
    ensembles: Sequence[np.ndarray],
    property_matrix: PropertyMatrix,
    settings: RobustnessSettings,
) -> list[RobustnessReport]:
    """Yield of each nominal row of ``decisions`` over its ensemble (Eq. 4).

    Every nominal row is stacked with its trials and the stack is evaluated
    in one ``property_matrix`` call; a trial is robust when it stays within
    ``epsilon`` of its nominal value (Eq. 3, vectorized).
    """
    sizes = [len(trials) for trials in ensembles]
    if min(sizes, default=1) < 1:
        raise ConfigurationError("a robustness ensemble needs at least one trial")
    stacked = np.vstack(
        [part for row, trials in zip(decisions, ensembles) for part in (row[None, :], trials)]
    )
    values = np.asarray(property_matrix(stacked), dtype=float)
    if values.shape != (len(stacked),):
        raise ConfigurationError(
            "property function must map an (n, n_var) matrix to n values, got shape %r"
            % (values.shape,)
        )
    reports: list[RobustnessReport] = []
    offset = 0
    for size in sizes:
        nominal = float(values[offset])
        perturbed = values[offset + 1 : offset + 1 + size].copy()
        offset += 1 + size
        threshold = (
            settings.epsilon * abs(nominal) if settings.relative_epsilon else settings.epsilon
        )
        robust = int(np.count_nonzero(np.abs(nominal - perturbed) <= threshold))
        reports.append(
            RobustnessReport(
                nominal_value=nominal,
                yield_fraction=robust / size,
                n_trials=size,
                epsilon=settings.epsilon,
                robust_trials=robust,
                perturbed_values=perturbed,
            )
        )
    return reports


def uptake_yield(
    x: np.ndarray,
    property_matrix: PropertyMatrix,
    settings: RobustnessSettings | None = None,
    trials: np.ndarray | None = None,
    clip_lower: np.ndarray | None = None,
    clip_upper: np.ndarray | None = None,
) -> RobustnessReport:
    """Yield ``Gamma`` of a design under global perturbation (Eq. 4).

    Parameters
    ----------
    x:
        Nominal design vector.
    property_matrix:
        The protected property (e.g. CO2 uptake) of every row of a decision
        matrix, ``(n, n_var) -> (n,)``.  Note this is the *natural*
        property, not the minimized objective.
    settings:
        Ensemble and threshold settings; paper defaults when omitted.
    trials:
        Pre-generated ensemble; when ``None`` a global ensemble is drawn from
        a fresh generator seeded with ``settings.seed``.
    """
    settings = settings or RobustnessSettings()
    x = np.asarray(x, dtype=float)
    if trials is None:
        model = settings.perturbation_model(clip_lower, clip_upper)
        trials = model.perturb_all(
            x, settings.global_trials, np.random.default_rng(settings.seed)
        )
    return _yields(x[None, :], [np.asarray(trials, dtype=float)], property_matrix, settings)[0]


def local_yields(
    x: np.ndarray,
    property_matrix: PropertyMatrix,
    settings: RobustnessSettings | None = None,
    variable_names: Sequence[str] | None = None,
    clip_lower: np.ndarray | None = None,
    clip_upper: np.ndarray | None = None,
) -> dict[str, RobustnessReport]:
    """Per-variable (local) yield analysis.

    Returns one :class:`RobustnessReport` per decision variable, keyed by the
    variable name.  Variables whose local yield is low are the fragile points
    of the design — in the photosynthesis case study these are the enzymes
    whose synthesis must be controlled most tightly.  The ensembles are drawn
    variable by variable from one generator seeded with ``settings.seed``.
    """
    settings = settings or RobustnessSettings()
    x = np.asarray(x, dtype=float)
    names = list(variable_names) if variable_names is not None else [
        "x%d" % i for i in range(x.size)
    ]
    if len(names) != x.size:
        raise ConfigurationError("variable_names must match the design dimension")
    rng = np.random.default_rng(settings.seed)
    model = settings.perturbation_model(clip_lower, clip_upper)
    ensembles = [
        model.perturb_one(x, index, settings.local_trials, rng)
        for index in range(len(names))
    ]
    reports = _yields(np.tile(x, (len(names), 1)), ensembles, property_matrix, settings)
    return dict(zip(names, reports))


def front_yields(
    decisions: np.ndarray,
    property_matrix: PropertyMatrix,
    settings: RobustnessSettings | None = None,
    clip_lower: np.ndarray | None = None,
    clip_upper: np.ndarray | None = None,
) -> list[RobustnessReport]:
    """Global yield of every design of a Pareto front (data behind Fig. 3).

    Each design's ensemble is drawn from a fresh generator seeded with
    ``settings.seed``, exactly as :func:`uptake_yield` draws it, so report
    ``i`` equals ``uptake_yield(decisions[i], ...)`` bit for bit; the
    nominal and trial rows of all designs go through one
    ``property_matrix`` call.
    """
    decisions = np.asarray(decisions, dtype=float)
    if decisions.ndim != 2:
        raise ConfigurationError("decisions must be an (n, n_var) matrix")
    settings = settings or RobustnessSettings()
    model = settings.perturbation_model(clip_lower, clip_upper)
    ensembles = [
        model.perturb_all(row, settings.global_trials, np.random.default_rng(settings.seed))
        for row in decisions
    ]
    return _yields(decisions, ensembles, property_matrix, settings)
