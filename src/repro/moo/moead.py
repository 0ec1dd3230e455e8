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
from repro.moo.individual import Population
from repro.moo.operators import (
    Draws,
    Variation,
    differential_variation,
    pcg64_generator,
    polynomial_mutation,
)
from repro.moo.validation import (
    check,
    check_at_least,
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
    constraint_penalty:
        Non-negative weight of the aggregate constraint violation added to the Tchebycheff
        value.
    """

    population_size: int = 100
    neighborhood_size: int | None = None
    neighborhood_selection_probability: float = 0.9
    max_replacements: int = 2
    de_scale: float = 0.5
    de_crossover_rate: float = 1.0
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
        check_probability(
            "neighborhood_selection_probability", self.neighborhood_selection_probability
        )
        check_at_least("max_replacements", self.max_replacements, 1)
        check_positive("de_scale", self.de_scale)
        check_probability("de_crossover_rate", self.de_crossover_rate)
        check_positive("mutation_eta", self.mutation_eta)
        check_probability("mutation_probability", self.mutation_probability, allow_none=True)
        check_at_least("constraint_penalty", self.constraint_penalty, 0)

    def resolved_neighborhood_size(self) -> int:
        """Neighbourhood size with the adaptive default applied."""
        if self.neighborhood_size is not None:
            return self.neighborhood_size
        return min(20, max(2, self.population_size // 2))


class MOEAD:
    """Decomposition-based multi-objective optimizer (Tchebycheff).

    ``evaluator`` routes objective evaluations through a
    :class:`~repro.runtime.evaluator.Evaluator` (process pool, cache, ...;
    a :class:`~repro.runtime.evaluator.SerialEvaluator` by default).  The
    sub-problem incumbents are one :class:`~repro.moo.individual.Population`,
    evaluated as one batch; each offspring is a one-row population of its
    own, evaluated alone (MOEA/D's replacement is inherently sequential).
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
        self.population = Population()
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

    def _aggregate_batch(
        self, objectives: np.ndarray, violations: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        """Row-wise Tchebycheff aggregation with a constraint penalty.

        ``objectives`` is ``(k, m)`` (or ``(1, m)``, broadcast against the
        ``(k, m)`` weight rows), ``violations`` ``(k,)`` (or ``(1,)``).
        """
        assert self.ideal is not None
        weights = np.where(weights <= 0.0, 1e-6, weights)
        values = np.max(weights * np.abs(objectives - self.ideal[None, :]), axis=1)
        return values + self.config.constraint_penalty * violations

    # ------------------------------------------------------------------
    def initialize(self) -> None:
        """Sample the sub-problem incumbents and evaluate them as one batch."""
        self.population = Population.random(
            self.problem, self.config.population_size, self.rng
        )
        self.evaluations += self.population.evaluate(self.problem, self.evaluator)
        self.ideal = np.min(self.population.F, axis=0)
        self.archive.add_population(self.population)
        self.generation = 0

    def _mating_pool(self, index: int) -> tuple[np.ndarray, bool]:
        """Return candidate indices for mating/replacement of sub-problem ``index``."""
        if self.rng.random() < self.config.neighborhood_selection_probability:
            return self.neighbors[index], True
        return np.arange(self.config.population_size), False

    def _reproduce(self, index: int, pool: np.ndarray) -> np.ndarray:
        """One child for sub-problem ``index``: DE variation, then mutation."""
        config = self.config
        variation = Variation(
            self.problem.lower_bounds,
            self.problem.upper_bounds,
            mutation_eta=config.mutation_eta,
            mutation_probability=config.mutation_probability,
        )
        picks = self.rng.choice(pool, size=2, replace=False)
        donor_a, donor_b = (self.population[int(pick)].x for pick in picks)
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
        # A cursor of one child's mutation, drawn at its worst case (2n
        # words): the choice, the DE draws and the permutation stay on the
        # generator.
        with Draws(self.rng, chunk=2 * variation.n_var) as draws:
            polynomial_mutation(variation, child, draws)
        return variation.apply(draws)[child]

    def step(self) -> None:
        """Perform one MOEA/D generation (one pass over all sub-problems).

        The generation's children enter the archive in one fold after the
        pass: nothing reads the archive inside it, and
        :meth:`~repro.moo.archive.ParetoArchive.add_population` keeps the
        membership of adding them one by one in order.
        """
        if not self.is_initialized:
            self.initialize()
        children = []
        for index in range(self.config.population_size):
            pool, restricted = self._mating_pool(index)
            child = Population.from_matrix(self._reproduce(index, pool)[None])
            self.evaluations += child.evaluate(self.problem, self.evaluator)
            self.ideal = np.minimum(self.ideal, child.F[0])
            children.append(child)
            replace_pool = pool if restricted else np.arange(self.config.population_size)
            order = self.rng.permutation(replace_pool)
            self._update_neighborhood(child, order)
        self.archive.add_population(Population.concat(children))
        self.generation += 1

    def _update_neighborhood(self, child: Population, order: np.ndarray) -> int:
        """Replace up to ``max_replacements`` incumbents the child improves on.

        One broadcast computes the one-row ``child``'s and the incumbents'
        Tchebycheff values over the whole (permuted) replacement pool at
        once; the first ``max_replacements`` improved sub-problems — in
        permutation order, exactly as the sequential scan visited them —
        take a copy of the child's row.  Returns the number of replacements.
        """
        weights = self.weights[order]
        child_values = self._aggregate_batch(child.F, child.CV, weights)
        incumbent_values = self._aggregate_batch(
            self.population.F[order], self.population.CV[order], weights
        )
        improved = order[child_values < incumbent_values]
        improved = improved[: self.config.max_replacements]
        offspring = child[0]
        for j in improved.tolist():
            incumbent = self.population[j]
            incumbent.x[:] = offspring.x
            incumbent.objectives = offspring.objectives
            incumbent.constraint_violation = offspring.constraint_violation
        return int(improved.size)

    # ------------------------------------------------------------------
    # Solver protocol (see repro.solve.api)
    # ------------------------------------------------------------------
    @property
    def is_initialized(self) -> bool:
        """Whether :meth:`initialize` has produced the incumbents."""
        return len(self.population) > 0

    def pareto_front(self) -> Population:
        """Snapshot of the non-dominated front accumulated so far."""
        return self.archive.to_population()

    def result(self) -> "SolveResult":
        """Package the optimizer's current state as a :class:`SolveResult`."""
        from repro.solve.result import SolveResult

        return SolveResult(
            algorithm="moead",
            problem=self.problem.name,
            population=self.population.copy(),
            archive=self.archive,
            generations=self.generation,
            evaluations=self.evaluations,
            history=self.history,
        )
