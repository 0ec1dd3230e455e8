"""MOEA/D: multi-objective evolutionary algorithm based on decomposition.

MOEA/D (Zhang & Li 2007) is the comparison baseline of Table 1 in the paper.
The problem is decomposed into ``population_size`` scalar sub-problems using
uniformly spread weight vectors and the Tchebycheff aggregation; every
sub-problem is optimized collaboratively using its neighbourhood.  Constraints
are handled with a simple penalty added to the aggregation value, which is
sufficient for the constrained case studies in this library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.evaluator import Evaluator
    from repro.solve.result import SolveResult

from repro.exceptions import ConfigurationError
from repro.moo.archive import ParetoArchive
from repro.moo.individual import Individual, Population
from repro.moo.operators import (
    Draws,
    Variation,
    differential_variation,
    pcg64_generator,
    polynomial_mutation,
    sbx_crossover,
)
from repro.moo.validation import (
    check,
    check_at_least,
    check_choice,
    check_finite_box,
    check_positive,
    check_probability,
)
from repro.problems.base import Problem
from repro.runtime.evaluator import SerialEvaluator

__all__ = ["MOEADConfig", "MOEAD", "uniform_weight_vectors"]


def uniform_weight_vectors(n_obj: int, population_size: int) -> np.ndarray:
    """Generate ``>= population_size`` simplex-lattice weight vectors.

    For two objectives this is the usual evenly spaced set
    ``(i/(N-1), 1-i/(N-1))``; for more objectives a simplex lattice with the
    smallest H that reaches the requested size is used and then truncated.
    """
    if n_obj < 2:
        raise ConfigurationError("weight vectors require at least two objectives")
    if population_size < n_obj:
        raise ConfigurationError("population must be at least as large as n_obj")
    if n_obj == 2:
        ticks = np.linspace(0.0, 1.0, population_size)
        return np.column_stack([ticks, 1.0 - ticks])
    h = 1
    while math.comb(h + n_obj - 1, n_obj - 1) < population_size:
        h += 1
    vectors = []
    for combo in combinations_with_replacement(range(n_obj), h):
        counts = np.bincount(np.array(combo), minlength=n_obj)
        vectors.append(counts / float(h))
        if len(vectors) >= population_size:
            break
    return np.vstack(vectors)[:population_size]


@dataclass
class MOEADConfig:
    """Hyper-parameters of MOEA/D.

    Attributes
    ----------
    population_size:
        Number of sub-problems (and of individuals).
    neighborhood_size:
        Size T of each sub-problem's neighbourhood; ``None`` (the default)
        resolves to ``min(20, max(2, population_size // 2))``, so the
        conventional T=20 is used whenever the population can support it and
        small populations degrade gracefully instead of erroring.
    neighborhood_selection_probability:
        Probability of restricting mating and replacement to the neighbourhood.
    max_replacements:
        Maximum number of solutions a single offspring may replace.
    variation:
        ``"de"`` for differential variation (MOEA/D-DE) or ``"sbx"``.
    constraint_penalty:
        Weight of the aggregate constraint violation added to the Tchebycheff
        value.
    """

    population_size: int = 100
    neighborhood_size: int | None = None
    neighborhood_selection_probability: float = 0.9
    max_replacements: int = 2
    variation: str = "de"
    de_scale: float = 0.5
    de_crossover_rate: float = 1.0
    crossover_eta: float = 15.0
    mutation_eta: float = 20.0
    mutation_probability: float | None = None
    constraint_penalty: float = 1e3
    archive_capacity: int | None = None

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent settings."""
        check_at_least("population_size", self.population_size, 4)
        if self.neighborhood_size is not None:
            check_at_least("neighborhood_size", self.neighborhood_size, 2)
            check(
                self.neighborhood_size <= self.population_size,
                "neighborhood_size cannot exceed population_size, got %s > %s"
                % (self.neighborhood_size, self.population_size),
            )
        check_choice("variation", self.variation, ("de", "sbx"))
        check_probability(
            "neighborhood_selection_probability", self.neighborhood_selection_probability
        )
        check_at_least("max_replacements", self.max_replacements, 1)
        check_positive("crossover_eta", self.crossover_eta)
        check_positive("mutation_eta", self.mutation_eta)

    def resolved_neighborhood_size(self) -> int:
        """Neighbourhood size with the adaptive default applied."""
        if self.neighborhood_size is not None:
            return self.neighborhood_size
        return min(20, max(2, self.population_size // 2))


class MOEAD:
    """Decomposition-based multi-objective optimizer (Tchebycheff).

    ``evaluator`` routes objective evaluations through a
    :class:`~repro.runtime.evaluator.Evaluator` (process pool, cache, ...;
    a :class:`~repro.runtime.evaluator.SerialEvaluator` by default); the
    initial population is evaluated as one batch, offspring one by one
    (MOEA/D's replacement is inherently sequential).
    """

    def __init__(
        self,
        problem: Problem,
        config: MOEADConfig | None = None,
        seed: int | None = None,
        evaluator: "Evaluator | None" = None,
    ) -> None:
        check_finite_box(problem)
        self.problem = problem
        self.config = config or MOEADConfig()
        self.config.validate()
        self.evaluator = evaluator if evaluator is not None else SerialEvaluator()
        self.rng = pcg64_generator(seed)
        self.weights = uniform_weight_vectors(problem.n_obj, self.config.population_size)
        self.neighbors = self._build_neighborhoods()
        self.population: list[Individual] = []
        #: Columnar views of the incumbents — an (n, m) objective matrix and
        #: an (n,) violation vector kept in sync with ``population`` so the
        #: neighbourhood update runs as one broadcast instead of per-index
        #: aggregation (rebuilt at every generation boundary).
        self._incumbent_F: np.ndarray | None = None
        self._incumbent_CV: np.ndarray | None = None
        self.ideal: np.ndarray | None = None
        self.archive = ParetoArchive(capacity=self.config.archive_capacity)
        self.evaluations = 0
        self.generation = 0
        self.history: list[dict] = []

    # ------------------------------------------------------------------
    def _build_neighborhoods(self) -> np.ndarray:
        distances = np.linalg.norm(
            self.weights[:, None, :] - self.weights[None, :, :], axis=2
        )
        size = self.config.resolved_neighborhood_size()
        return np.argsort(distances, axis=1)[:, :size]

    def _aggregate(self, individual: Individual, weight: np.ndarray) -> float:
        """Tchebycheff aggregation with a constraint penalty."""
        assert self.ideal is not None
        weight = np.where(weight <= 0.0, 1e-6, weight)
        value = float(np.max(weight * np.abs(individual.objectives - self.ideal)))
        return value + self.config.constraint_penalty * individual.constraint_violation

    def _aggregate_batch(
        self, objectives: np.ndarray, violations: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        """Row-wise Tchebycheff aggregation (broadcast form of :meth:`_aggregate`).

        ``objectives`` is ``(k, m)`` (or ``(1, m)``, broadcast against the
        ``(k, m)`` weight rows), ``violations`` scalar or ``(k,)``.  Each row
        uses the same elementwise operations as the scalar method, so the
        values are bitwise identical.
        """
        assert self.ideal is not None
        weights = np.where(weights <= 0.0, 1e-6, weights)
        values = np.max(weights * np.abs(objectives - self.ideal[None, :]), axis=1)
        return values + self.config.constraint_penalty * violations

    def _refresh_incumbent_columns(self) -> None:
        """Rebuild the columnar incumbent views from the population.

        Called at every generation boundary, so the views can never go stale
        — not even when a checkpoint restore swaps the population out from
        under a warm instance.  One ``(n, m)`` stack per generation is noise
        next to the per-child replacement work it accelerates.
        """
        incumbents = Population(self.population)
        self._incumbent_F = np.array(incumbents.F)
        self._incumbent_CV = np.array(incumbents.CV)

    def _update_ideal(self, individual: Individual) -> None:
        if self.ideal is None:
            self.ideal = individual.objectives.copy()
        else:
            self.ideal = np.minimum(self.ideal, individual.objectives)

    # ------------------------------------------------------------------
    def _evaluate(self, individual: Individual) -> None:
        batch = self.evaluator.evaluate_matrix(self.problem, individual.x[None, :])
        individual.set_evaluation(batch.result(0))
        self.evaluations += 1

    def initialize(self) -> None:
        """Sample and evaluate the initial set of sub-problem incumbents."""
        # Draw every incumbent first (same RNG stream as the sequential
        # version), then evaluate them as one batch so a pooled evaluator can
        # fan the whole initialization out.
        individuals = [
            Individual(self.problem.random_solution(self.rng))
            for _ in range(self.config.population_size)
        ]
        X = np.vstack([individual.x for individual in individuals])
        batch = self.evaluator.evaluate_matrix(self.problem, X)
        self.population = []
        for index, individual in enumerate(individuals):
            individual.set_evaluation(batch.result(index))
            self.evaluations += 1
            self._update_ideal(individual)
            self.population.append(individual)
        self._refresh_incumbent_columns()
        self.archive.add_population(self.population)
        self.generation = 0

    def _mating_pool(self, index: int) -> tuple[np.ndarray, bool]:
        """Return candidate indices for mating/replacement of sub-problem ``index``."""
        if self.rng.random() < self.config.neighborhood_selection_probability:
            return self.neighbors[index], True
        return np.arange(self.config.population_size), False

    def _reproduce(self, index: int, pool: np.ndarray) -> np.ndarray:
        """One child for sub-problem ``index``: a variation record of one pair."""
        config = self.config
        variation = Variation(
            self.problem.lower_bounds,
            self.problem.upper_bounds,
            crossover_eta=config.crossover_eta,
            mutation_eta=config.mutation_eta,
            mutation_probability=config.mutation_probability,
        )
        picks = self.rng.choice(pool, size=2, replace=False)
        donor_a, donor_b = (self.population[int(pick)].x for pick in picks)
        sbx = config.variation == "sbx"
        if not sbx:
            child = variation.add(
                differential_variation(
                    self.population[index].x,
                    donor_a,
                    donor_b,
                    variation.lower,
                    variation.upper,
                    self.rng,
                    scale=config.de_scale,
                    crossover_rate=config.de_crossover_rate,
                )
            )
        # A cursor of one child, drawn at its worst case (SBX 1 + 3n words,
        # mutation 2n): the choice, the DE draws and the permutation stay
        # on the generator.
        n = variation.n_var
        with Draws(self.rng, chunk=5 * n + 1 if sbx else 2 * n) as draws:
            if sbx:
                child, _ = sbx_crossover(variation, donor_a, donor_b, draws)
            polynomial_mutation(variation, child, draws)
        return variation.apply(draws)[child]

    def step(self) -> None:
        """Perform one MOEA/D generation (one pass over all sub-problems)."""
        if not self.population:
            self.initialize()
        self._refresh_incumbent_columns()
        for index in range(self.config.population_size):
            pool, restricted = self._mating_pool(index)
            child_vector = self._reproduce(index, pool)
            child = Individual(child_vector)
            self._evaluate(child)
            self._update_ideal(child)
            self.archive.add(child)
            replace_pool = pool if restricted else np.arange(self.config.population_size)
            order = self.rng.permutation(replace_pool)
            self._update_neighborhood(child, order)
        self.generation += 1

    def _update_neighborhood(self, child: Individual, order: np.ndarray) -> int:
        """Replace up to ``max_replacements`` incumbents the child improves on.

        One broadcast computes the child's and the incumbents' Tchebycheff
        values over the whole (permuted) replacement pool at once; the first
        ``max_replacements`` improved sub-problems — in permutation order,
        exactly as the sequential scan visited them — adopt a copy of the
        child.  Returns the number of replacements performed.
        """
        assert self._incumbent_F is not None and self._incumbent_CV is not None
        child_values = self._aggregate_batch(
            child.objectives[None, :], child.constraint_violation, self.weights[order]
        )
        incumbent_values = self._aggregate_batch(
            self._incumbent_F[order], self._incumbent_CV[order], self.weights[order]
        )
        improved = order[child_values < incumbent_values]
        improved = improved[: self.config.max_replacements]
        for j in improved:
            j = int(j)
            clone = child.copy()
            self.population[j] = clone
            self._incumbent_F[j] = clone.objectives
            self._incumbent_CV[j] = clone.constraint_violation
        return int(improved.size)

    # ------------------------------------------------------------------
    # Solver protocol (see repro.solve.api)
    # ------------------------------------------------------------------
    @property
    def is_initialized(self) -> bool:
        """Whether :meth:`initialize` has produced the incumbents."""
        return bool(self.population)

    def pareto_front(self) -> Population:
        """Snapshot of the non-dominated front accumulated so far."""
        return self.archive.to_population()

    def result(self) -> "SolveResult":
        """Package the optimizer's current state as a :class:`SolveResult`."""
        from repro.solve.result import SolveResult

        return SolveResult(
            algorithm="moead",
            problem=self.problem.name,
            population=Population(ind.copy() for ind in self.population),
            archive=self.archive,
            generations=self.generation,
            evaluations=self.evaluations,
            history=self.history,
        )
