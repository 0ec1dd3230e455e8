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
from repro.moo.individual import Individual, Population
from repro.moo.operators import (
    Variation,
    binary_tournament,
    latin_hypercube,
    polynomial_mutation,
    sbx_crossover,
)
from repro.moo.validation import (
    check_at_least,
    check_choice,
    check_even,
    check_positive,
    check_probability,
)
from repro.problems.base import Problem
from repro.runtime.evaluator import SerialEvaluator

__all__ = ["NSGA2Config", "NSGA2", "assign_ranks_and_crowding"]


def assign_ranks_and_crowding(
    population: Population, cover: int | None = None
) -> list[list[int]]:
    """Sort ``population`` and store its ``rank`` and ``crowding`` vectors.

    Runs :func:`repro.moo.kernels.nondominated_sort` on ``population.F`` /
    ``population.CV`` and :func:`repro.moo.kernels.crowding_distances` per
    front.  Returns the fronts (lists of indices, rank 0 first) so callers
    can reuse them without re-sorting.  With ``cover`` set, only the
    shortest prefix of fronts holding ``cover`` individuals is sorted and
    annotated; the rest keep whatever rank and crowding they had.
    """
    if len(population) == 0:
        return []
    objectives = population.F
    fronts = kernels.nondominated_sort(objectives, population.CV, cover=cover)
    for rank, front in enumerate(fronts):
        rows = np.asarray(front)
        population.rank[rows] = rank
        population.crowding[rows] = kernels.crowding_distances(objectives[rows])
    return fronts


def _truncate_front(
    union: Population, fronts: list[list[int]], rank: int, remaining: int
) -> list[int]:
    """Keep the ``remaining`` least crowded members of ``fronts[rank]``.

    Returns their rows in truncation order, with their crowding recomputed
    among themselves, exactly as a fresh sort of the survivors would.  That
    sort lists the kept members of front 0 in survivor (truncation) order;
    those of a later front where their last dominator in the (whole)
    previous front releases them, ties in survivor order, which is a stable
    sort on the last dominator's position.
    """
    front = fronts[rank]
    order = kernels.crowding_truncation_order(union.crowding[np.asarray(front)])
    kept = [front[k] for k in order[:remaining]]
    if not kept:
        return []
    listed = kept
    F, CV = union.F, union.CV
    if rank > 0:
        previous = fronts[rank - 1]
        released_by = kernels.constrained_domination_blocks(
            F[previous], CV[previous], F[kept], CV[kept]
        )
        last_dominator = len(previous) - 1 - np.argmax(released_by[::-1, :], axis=0)
        listed = [kept[k] for k in np.argsort(last_dominator, kind="stable")]
    union.crowding[listed] = kernels.crowding_distances(F[listed])
    return kept


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
        check_positive("crossover_eta", self.crossover_eta)
        check_probability("mutation_probability", self.mutation_probability, allow_none=True)
        check_positive("mutation_eta", self.mutation_eta)
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
        per-generation evaluation batches (process pool, cache, ...); a
        :class:`~repro.runtime.evaluator.SerialEvaluator` by default.
        Results are identical either way.
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
        self.evaluator = evaluator if evaluator is not None else SerialEvaluator()
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
        sampler = (
            latin_hypercube if self.config.initialization == "latin" else Population.random
        )
        if population is not None:
            self.population = population.copy()
            deficit = self.config.population_size - len(self.population)
            if deficit > 0:
                self.population.extend(sampler(self.problem, deficit, self.rng))
        else:
            self.population = sampler(self.problem, self.config.population_size, self.rng)
        self.evaluations += self.population.evaluate(self.problem, self.evaluator)
        assign_ranks_and_crowding(self.population)
        self.archive.add_population(self.population)
        self.generation = 0

    def _make_offspring(self) -> Population:
        """Create one generation of offspring by selection + SBX + mutation.

        The draw steps run per pair, in the order of the random stream
        (two tournaments, the crossover, the two mutations); the recorded
        variation is then applied to the whole generation at once.
        """
        assert self.population is not None
        population, rng, config = self.population, self.rng, self.config
        variation = Variation(
            self.problem.lower_bounds,
            self.problem.upper_bounds,
            crossover_eta=config.crossover_eta,
            crossover_probability=config.crossover_probability,
            mutation_eta=config.mutation_eta,
            mutation_probability=config.mutation_probability,
        )
        X = population.X
        for _ in range(config.population_size // 2):
            parent_a = binary_tournament(population, rng)
            parent_b = binary_tournament(population, rng)
            child_a, child_b = sbx_crossover(variation, X[parent_a], X[parent_b], rng)
            polynomial_mutation(variation, child_a, rng)
            polynomial_mutation(variation, child_b, rng)
        return Population.from_matrix(variation.apply())

    def _environmental_selection(self, union: Population) -> Population:
        """Elitist truncation of the parent+offspring union.

        Ranking, crowding and the truncation order all run on the vectorized
        kernels; the stable descending-crowding order reproduces the classic
        ``sorted(..., reverse=True)`` tie-breaking exactly.

        The union is sorted once, and only as far as the front that fills
        the population; the members past it are discarded unsorted.
        Re-sorting the survivors would find the same fronts, the whole ones
        in the same order, so their members keep the union's rank and
        crowding; only the truncated front's crowding is recomputed
        (:func:`_truncate_front`).
        """
        fronts = assign_ranks_and_crowding(union, cover=self.config.population_size)
        survivors: list[int] = []
        for rank, front in enumerate(fronts):
            remaining = self.config.population_size - len(survivors)
            if len(front) > remaining:
                survivors.extend(_truncate_front(union, fronts, rank, remaining))
                break
            survivors.extend(front)
        return union.take(survivors)

    def step(self) -> None:
        """Advance the optimizer by one generation."""
        if self.population is None:
            self.initialize()
        assert self.population is not None
        offspring = self._make_offspring()
        self.evaluations += offspring.evaluate(self.problem, self.evaluator)
        union = Population.concat([self.population, offspring])
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
            individuals[slot] = migrant
        self.population = Population(individuals)  # copies every row
        assign_ranks_and_crowding(self.population)
        self.archive.add_population(self.population)
