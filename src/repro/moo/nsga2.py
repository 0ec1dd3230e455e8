"""NSGA-II: the Non-dominated Sorting Genetic Algorithm II.

This is the island engine used by PMO2 (Sec. 2.1 of the paper).  The
implementation follows Deb et al. 2002: binary tournament selection on
(rank, crowding), SBX crossover, polynomial mutation and elitist environmental
selection by non-dominated sorting with crowding-distance truncation, extended
with Deb's constraint-domination rules so that constrained problems such as
the Geobacter flux design are handled natively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.evaluator import Evaluator
    from repro.solve.result import SolveResult
from repro.moo import kernels
from repro.moo.archive import ParetoArchive
from repro.moo.dominance import assign_ranks_and_crowding
from repro.moo.individual import Individual, Population
from repro.moo.operators import (
    binary_tournament,
    latin_hypercube,
    polynomial_mutation,
    sbx_crossover,
    uniform_initialization,
)
from repro.moo.validation import check_at_least, check_choice, check_even, check_probability
from repro.problems.base import Problem

__all__ = ["NSGA2Config", "NSGA2"]


@dataclass
class NSGA2Config:
    """Hyper-parameters of one NSGA-II instance.

    Attributes
    ----------
    population_size:
        Number of individuals (must be even so that crossover pairs align).
    crossover_probability, crossover_eta:
        SBX probability and distribution index.
    mutation_probability, mutation_eta:
        Polynomial-mutation per-variable probability (``None`` = ``1/n_var``)
        and distribution index.
    initialization:
        ``"latin"`` (default) or ``"uniform"``.
    archive_capacity:
        Capacity of the external non-dominated archive (``None`` = unbounded).
    """

    population_size: int = 100
    crossover_probability: float = 0.9
    crossover_eta: float = 15.0
    mutation_probability: float | None = None
    mutation_eta: float = 20.0
    initialization: str = "latin"
    archive_capacity: int | None = None

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent settings."""
        check_at_least("population_size", self.population_size, 4)
        check_even("population_size", self.population_size)
        check_probability("crossover_probability", self.crossover_probability)
        check_probability("mutation_probability", self.mutation_probability, allow_none=True)
        check_choice("initialization", self.initialization, ("latin", "uniform"))


class NSGA2:
    """Single-population NSGA-II optimizer.

    Parameters
    ----------
    problem:
        The :class:`~repro.problems.Problem` to minimize.
    config:
        Hyper-parameters; defaults reproduce the standard NSGA-II settings.
    seed:
        Seed of the private random generator.
    evaluator:
        Optional :class:`~repro.runtime.evaluator.Evaluator` executing the
        per-generation evaluation batches (process pool, cache, ...);
        ``None`` evaluates in-process.  Results are identical either way.
    """

    def __init__(
        self,
        problem: Problem,
        config: NSGA2Config | None = None,
        seed: int | None = None,
        evaluator: "Evaluator | None" = None,
    ) -> None:
        self.problem = problem
        self.config = config or NSGA2Config()
        self.config.validate()
        self.evaluator = evaluator
        self.rng = np.random.default_rng(seed)
        self.population: Population | None = None
        self.archive = ParetoArchive(capacity=self.config.archive_capacity)
        self.evaluations = 0
        self.generation = 0
        self.history: list[dict] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def initialize(self, population: Population | None = None) -> None:
        """Create (or adopt) and evaluate the initial population.

        An adopted population smaller than ``config.population_size`` (a
        warm-start front, say) is topped up with the configured initializer
        drawn from the run's seeded generator, so partially seeded runs stay
        deterministic in the seed.
        """
        if population is not None:
            self.population = population.copy()
            deficit = self.config.population_size - len(self.population)
            if deficit > 0:
                sampler = (
                    latin_hypercube
                    if self.config.initialization == "latin"
                    else uniform_initialization
                )
                self.population.extend(sampler(self.problem, deficit, self.rng))
        elif self.config.initialization == "latin":
            self.population = latin_hypercube(
                self.problem, self.config.population_size, self.rng
            )
        else:
            self.population = uniform_initialization(
                self.problem, self.config.population_size, self.rng
            )
        self.evaluations += self.population.evaluate(self.problem, self.evaluator)
        assign_ranks_and_crowding(self.population)
        self.archive.add_population(self.population)
        self.generation = 0

    def _make_offspring(self) -> Population:
        """Create one generation of offspring by selection + SBX + mutation."""
        assert self.population is not None
        offspring = Population()
        lower, upper = self.problem.lower_bounds, self.problem.upper_bounds
        while len(offspring) < self.config.population_size:
            parent_a = binary_tournament(self.population, self.rng)
            parent_b = binary_tournament(self.population, self.rng)
            child_a, child_b = sbx_crossover(
                parent_a.x,
                parent_b.x,
                lower,
                upper,
                self.rng,
                eta=self.config.crossover_eta,
                probability=self.config.crossover_probability,
            )
            child_a = polynomial_mutation(
                child_a,
                lower,
                upper,
                self.rng,
                eta=self.config.mutation_eta,
                probability=self.config.mutation_probability,
            )
            child_b = polynomial_mutation(
                child_b,
                lower,
                upper,
                self.rng,
                eta=self.config.mutation_eta,
                probability=self.config.mutation_probability,
            )
            offspring.append(Individual(child_a))
            if len(offspring) < self.config.population_size:
                offspring.append(Individual(child_b))
        return offspring

    def _environmental_selection(self, union: Population) -> Population:
        """Elitist truncation of the parent+offspring union.

        Ranking, crowding and the truncation order all run on the vectorized
        kernels; the stable descending-crowding order reproduces the classic
        ``sorted(..., reverse=True)`` tie-breaking exactly.
        """
        fronts = assign_ranks_and_crowding(union)
        survivors = Population()
        for front in fronts:
            if len(survivors) + len(front) <= self.config.population_size:
                survivors.extend(union[i] for i in front)
            else:
                remaining = self.config.population_size - len(survivors)
                crowding = np.array([union[i].crowding for i in front])
                order = kernels.crowding_truncation_order(crowding)
                survivors.extend(union[front[k]] for k in order[:remaining])
                break
        assign_ranks_and_crowding(survivors)
        return survivors

    def step(self) -> None:
        """Advance the optimizer by one generation."""
        if self.population is None:
            self.initialize()
        assert self.population is not None
        offspring = self._make_offspring()
        self.evaluations += offspring.evaluate(self.problem, self.evaluator)
        union = Population(list(self.population) + list(offspring))
        self.population = self._environmental_selection(union)
        self.archive.add_population(self.population)
        self.generation += 1

    # ------------------------------------------------------------------
    # Solver protocol (see repro.solve.api)
    # ------------------------------------------------------------------
    @property
    def is_initialized(self) -> bool:
        """Whether :meth:`initialize` has produced a population."""
        return self.population is not None

    def pareto_front(self) -> Population:
        """Snapshot of the non-dominated front accumulated so far."""
        return self.archive.to_population()

    def result(self) -> "SolveResult":
        """Package the optimizer's current state as a :class:`SolveResult`."""
        from repro.solve.result import SolveResult

        return SolveResult(
            algorithm="nsga2",
            problem=self.problem.name,
            population=self.population,
            archive=self.archive,
            generations=self.generation,
            evaluations=self.evaluations,
            history=self.history,
        )

    # ------------------------------------------------------------------
    # Migration support (used by the archipelago)
    # ------------------------------------------------------------------
    def emigrants(self, count: int) -> list[Individual]:
        """Select ``count`` migrants: the least crowded rank-0 individuals."""
        assert self.population is not None
        ranked = sorted(
            self.population,
            key=lambda ind: (ind.rank if ind.rank is not None else 0, -ind.crowding),
        )
        return [ind.copy() for ind in ranked[:count]]

    def immigrate(self, immigrants: list[Individual]) -> None:
        """Replace the worst individuals with incoming migrants."""
        if not immigrants or self.population is None:
            return
        ranked = sorted(
            range(len(self.population)),
            key=lambda i: (
                self.population[i].rank if self.population[i].rank is not None else 0,
                -self.population[i].crowding,
            ),
        )
        worst_first = list(reversed(ranked))
        replacements = min(len(immigrants), len(self.population))
        individuals = list(self.population)
        for slot, migrant in zip(worst_first[:replacements], immigrants[:replacements]):
            individuals[slot] = migrant.copy()
        self.population = Population(individuals)
        assign_ranks_and_crowding(self.population)
        self.archive.add_population(self.population)
