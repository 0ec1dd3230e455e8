"""Multi-objective flux-design problem for Geobacter sulfurreducens.

Sec. 3.2 of the paper optimizes the 608 reaction fluxes of the Geobacter
model "with the constraint that steady state solutions are preferred (i.e.
S · x = 0)", maximizing two crucial fluxes: electron production and biomass
production.  The bounds highlighted by flux balance analysis define the search
space, and the ATP maintenance flux is kept fixed at 0.45.

:class:`GeobacterDesignProblem` reproduces exactly that formulation:

* decision vector — the full flux vector (608 variables) bounded by the
  model's flux bounds (tightened to a practical magnitude for the internal
  reversible reactions);
* objectives — minimize ``-electron production`` and ``-biomass production``;
* constraint — the steady-state violation ``‖S v‖₁``, handled through the
  optimizer's constrained-dominance rules so that "the algorithm rewards less
  violating solutions" as in the paper.

Because a 608-dimensional random vector is essentially never close to the
steady-state manifold (the paper's own initial guess violates it by ~10⁶),
the problem also provides :meth:`GeobacterDesignProblem.seeded_population`,
which builds an initial population from FBA solutions of scalarized
electron/biomass objectives plus random perturbations — the multi-objective
search then explores and refines the trade-off between the two productions.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.fba.model import StoichiometricModel
from repro.fba.solver import optimize_combination
from repro.moo.individual import Individual, Population
from repro.problems.base import Problem
from repro.problems.batch import BatchEvaluation, EvaluationResult
from repro.geobacter.model_builder import (
    ATP_MAINTENANCE_FLUX,
    ATP_MAINTENANCE_ID,
    BIOMASS_ID,
    ELECTRON_PRODUCTION_ID,
    build_geobacter_model,
)

__all__ = ["GeobacterDesignProblem"]


class GeobacterDesignProblem(Problem):
    """Maximize electron and biomass production over the 608 fluxes.

    Parameters
    ----------
    model:
        A Geobacter model; built fresh when omitted.
    flux_cap:
        Practical bound magnitude used for reactions whose model bounds are
        the default ±1000 (keeps the random search space commensurate with
        the physiological flux scale).
    violation_tolerance:
        Steady-state violation below which a solution is treated as feasible.
    violation_norm:
        Norm used for the steady-state violation (``"l1"`` as in the paper's
        reported magnitudes).
    """

    def __init__(
        self,
        model: StoichiometricModel | None = None,
        flux_cap: float = 200.0,
        violation_tolerance: float = 1e-3,
        violation_norm: str = "l1",
    ) -> None:
        if flux_cap <= 0:
            raise ConfigurationError("flux_cap must be positive")
        source = model if model is not None else build_geobacter_model()
        # Work on a private copy whose bounds are tightened to the practical
        # flux cap; the FBA seeds are then computed on the same polytope the
        # evolutionary search explores, so they respect the box bounds.
        self.model = source.copy()
        self.model.fix_flux(ATP_MAINTENANCE_ID, ATP_MAINTENANCE_FLUX)
        for reaction in self.model.reactions:
            if reaction.identifier == ATP_MAINTENANCE_ID:
                continue
            reaction.lower_bound = max(reaction.lower_bound, -flux_cap)
            reaction.upper_bound = min(reaction.upper_bound, flux_cap)
        lower, upper = self.model.bounds()
        super().__init__(
            n_var=self.model.n_reactions,
            n_obj=2,
            lower_bounds=lower,
            upper_bounds=upper,
            names=self.model.reaction_ids,
            objective_names=["electron_production", "biomass_production"],
            objective_senses=[-1, -1],
        )
        self.violation_tolerance = violation_tolerance
        self.violation_norm = violation_norm
        self._electron_index = self.model.reaction_index(ELECTRON_PRODUCTION_ID)
        self._biomass_index = self.model.reaction_index(BIOMASS_ID)
        self._stoichiometric = self.model.stoichiometric_matrix()

    # ------------------------------------------------------------------
    def _evaluate_row(self, x: np.ndarray) -> EvaluationResult:
        fluxes = self.validate(x)
        electron = float(fluxes[self._electron_index])
        biomass = float(fluxes[self._biomass_index])
        residual = self._stoichiometric @ fluxes
        if self.violation_norm == "l1":
            violation = float(np.sum(np.abs(residual)))
        elif self.violation_norm == "l2":
            violation = float(np.linalg.norm(residual))
        else:
            violation = float(np.max(np.abs(residual)))
        effective = max(0.0, violation - self.violation_tolerance)
        return EvaluationResult(
            objectives=np.array([-electron, -biomass]),
            constraint_violations=np.array([effective]),
            info={
                "electron_production": electron,
                "biomass_production": biomass,
                "steady_state_violation": violation,
            },
        )

    def _evaluate_matrix(self, X: np.ndarray) -> BatchEvaluation:
        # The residual of each member stays a per-row matrix-vector product
        # (a stacked GEMM accumulates in a different order than the scalar
        # GEMV and drifts in the last ulp); the norm reductions and the
        # tolerance floor are columnwise and exact.
        residuals = np.empty((X.shape[0], self._stoichiometric.shape[0]))
        for row, fluxes in enumerate(X):
            residuals[row] = self._stoichiometric @ fluxes
        if self.violation_norm == "l1":
            violations = np.sum(np.abs(residuals), axis=1)
        elif self.violation_norm == "l2":
            violations = np.array([float(np.linalg.norm(row)) for row in residuals])
        else:
            violations = np.max(np.abs(residuals), axis=1)
        electron = X[:, self._electron_index]
        biomass = X[:, self._biomass_index]
        return BatchEvaluation(
            F=np.column_stack([-electron, -biomass]),
            G=np.maximum(0.0, violations - self.violation_tolerance)[:, None],
            info=tuple(
                {
                    "electron_production": float(e),
                    "biomass_production": float(b),
                    "steady_state_violation": float(v),
                }
                for e, b, v in zip(electron, biomass, violations)
            ),
        )

    # ------------------------------------------------------------------
    # Helpers for building initial populations and reporting
    # ------------------------------------------------------------------
    def random_guess_violation(self, seed: int | None = None, n_samples: int = 10) -> float:
        """Average steady-state violation of uniformly random flux vectors.

        This is the "initial guess" violation the paper quotes (order 10⁶ for
        the published model); the benchmark reports the reduction factor
        between this value and the best violation reached by the optimizer.
        """
        rng = np.random.default_rng(seed)
        values = []
        for _ in range(n_samples):
            vector = rng.uniform(self.lower_bounds, self.upper_bounds)
            batch = self.evaluate_matrix(vector[None, :])
            values.append(batch.info_at(0)["steady_state_violation"])
        return float(np.mean(values))

    def fba_seed_vectors(self, n_seeds: int = 10) -> list[np.ndarray]:
        """Steady-state seeds spanning the electron/biomass trade-off.

        The seeds are epsilon-constraint solutions: for ``n_seeds`` growth
        targets between zero and the maximal growth rate, electron production
        is maximized subject to ``biomass >= target``.  Every seed satisfies
        ``S v = 0`` exactly (up to LP tolerance) and is Pareto optimal for the
        (electron, biomass) pair, so together they trace the true trade-off
        curve of the flux polytope.
        """
        if n_seeds < 2:
            raise ConfigurationError("need at least two seeds")
        max_growth = optimize_combination(
            self.model, {BIOMASS_ID: 1.0}, maximize=True
        ).objective_value
        seeds = []
        scratch = self.model.copy()
        biomass_reaction = scratch.get_reaction(BIOMASS_ID)
        for target in np.linspace(0.0, max_growth, n_seeds):
            biomass_reaction.lower_bound = float(target)
            solution = optimize_combination(
                scratch, {ELECTRON_PRODUCTION_ID: 1.0}, maximize=True
            )
            seeds.append(solution.flux_vector(scratch))
        return seeds

    def seeded_population(
        self,
        size: int,
        rng: np.random.Generator,
        perturbation: float = 0.02,
        n_seeds: int = 10,
    ) -> Population:
        """Initial population mixing FBA seeds and perturbed copies.

        Parameters
        ----------
        size:
            Population size.
        perturbation:
            Relative magnitude of the multiplicative noise applied to the
            copies (the paper's formulation perturbs the flux vector
            directly).
        """
        seeds = self.fba_seed_vectors(n_seeds=min(n_seeds, size))
        individuals = [Individual(self.clip(seed)) for seed in seeds[:size]]
        while len(individuals) < size:
            base = seeds[int(rng.integers(0, len(seeds)))]
            noise = rng.uniform(1.0 - perturbation, 1.0 + perturbation, size=base.shape)
            shifted = base * noise
            individuals.append(Individual(self.clip(shifted)))
        return Population(individuals)

    def production_front(self, objectives: np.ndarray) -> np.ndarray:
        """Convert minimized objectives to (electron, biomass) natural units."""
        objectives = np.asarray(objectives, dtype=float)
        return np.column_stack([-objectives[:, 0], -objectives[:, 1]])
