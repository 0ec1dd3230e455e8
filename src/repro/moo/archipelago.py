"""PMO2: Parallel Multi-Objective Optimization (the paper's algorithm).

PMO2 (Sec. 2.1) is an archipelago of NSGA-II optimizers ("islands") that
evolve independently and periodically exchange their best candidate
solutions.  The adopted configuration — the one every experiment of the
paper uses, and the defaults of :class:`PMO2Config` — is:

* two islands, each an independent NSGA-II instance,
* an all-to-all (broadcast) migration topology,
* migration every 200 generations,
* migration probability 0.5.

The ``"isolated"`` topology (no migration at all) is the baseline of the
migration ablation.  :class:`Archipelago` is the ``"pmo2"`` entry of the
solver registry; run it with ``solve(problem, "pmo2", termination=...)``,
which returns the merged non-dominated front together with run statistics.

The island *scheduling* runs cooperatively inside one process (the paper's
"coarse-grained parallelism" refers to the population structure), which keeps
the migration dynamics deterministic; the expensive part — objective
evaluation — can nevertheless fan out over OS processes by attaching a shared
:class:`repro.runtime.ProcessPoolEvaluator`, and long runs can checkpoint and
resume through :class:`repro.runtime.CheckpointManager`; :func:`repro.solve.solve`
wires up both.  Both features preserve bitwise-identical results for a fixed
seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.evaluator import Evaluator
    from repro.solve.result import SolveResult

from repro.moo.archive import ParetoArchive
from repro.moo.individual import Population
from repro.moo.nsga2 import NSGA2, NSGA2Config
from repro.moo.validation import check_at_least, check_choice, check_even, check_probability
from repro.obs.trace import get_tracer
from repro.problems.base import Problem
from repro.runtime.evaluator import SerialEvaluator

__all__ = ["PMO2Config", "Archipelago"]


@dataclass
class PMO2Config:
    """Configuration of the PMO2 archipelago.

    The defaults reproduce the paper's adopted configuration; the other
    values expose the rest of the island model the paper describes.  How
    evaluations execute (worker processes, caching) is not configured here:
    :func:`repro.solve.solve` decides it through its ``n_workers`` /
    ``cache`` / ``evaluator`` knobs.

    Attributes
    ----------
    n_islands:
        Number of NSGA-II islands.
    island_population_size:
        Population of each island (even, at least 4).
    migration_interval:
        Number of generations between migration events.
    migration_rate:
        Probability that a scheduled migration along one edge happens.
    migration_count:
        Number of individuals sent along each active edge.
    topology:
        Migration topology: ``"all-to-all"`` (the paper's broadcast
        migration) or ``"isolated"`` (no migration; the migration ablation).
    archive_capacity:
        Per-island archive bound (``None`` = unbounded).
    """

    n_islands: int = 2
    island_population_size: int = 52
    migration_interval: int = 200
    migration_rate: float = 0.5
    migration_count: int = 5
    topology: str = "all-to-all"
    archive_capacity: int | None = None

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent settings."""
        check_at_least("n_islands", self.n_islands, 1)
        check_at_least("island_population_size", self.island_population_size, 4)
        check_even("island_population_size", self.island_population_size)
        check_at_least("migration_interval", self.migration_interval, 1)
        check_probability("migration_rate", self.migration_rate)
        check_at_least("migration_count", self.migration_count, 1)
        check_choice("topology", self.topology, ("all-to-all", "isolated"))


class Archipelago:
    """The PMO2 island model: ``config.n_islands`` NSGA-II islands.

    Parameters
    ----------
    problem:
        The :class:`~repro.problems.Problem` every island minimizes.
    config:
        Island model settings; defaults to the paper's configuration.
    seed:
        Master seed.  The island seeds and the seed of the generator that
        draws the per-edge migration coin flips are derived from it through a
        :class:`numpy.random.SeedSequence`.
    evaluator:
        Shared :class:`~repro.runtime.evaluator.Evaluator` of every island
        (a fresh :class:`~repro.runtime.evaluator.SerialEvaluator` by
        default), so the whole archipelago fans its evaluation batches out
        over one worker pool, shares one memoization cache and counts into
        one ledger.  Evaluator choice never changes results.

    Example
    -------
    >>> from repro.moo.testproblems import Schaffer
    >>> archipelago = Archipelago(Schaffer(), PMO2Config(island_population_size=12), seed=0)
    >>> len(archipelago.islands), archipelago.destinations
    (2, [[1], [0]])
    """

    def __init__(
        self,
        problem: Problem,
        config: PMO2Config | None = None,
        seed: int | None = None,
        evaluator: "Evaluator | None" = None,
    ) -> None:
        config = config or PMO2Config()
        config.validate()
        self.config = config
        self.evaluator = evaluator if evaluator is not None else SerialEvaluator()
        n = config.n_islands
        seeds = [
            int(child.generate_state(1)[0])
            for child in np.random.SeedSequence(seed).spawn(n + 1)
        ]
        self.islands = [
            NSGA2(
                problem,
                config=NSGA2Config(
                    population_size=config.island_population_size,
                    archive_capacity=config.archive_capacity,
                ),
                seed=island_seed,
                evaluator=self.evaluator,
            )
            for island_seed in seeds[:n]
        ]
        #: ``destinations[i]``: the islands that receive island ``i``'s migrants.
        self.destinations = [
            [j for j in range(n) if j != i] if config.topology == "all-to-all" else []
            for i in range(n)
        ]
        self.rng = np.random.default_rng(seeds[n])
        self.generation = 0
        self.migrations = 0
        self.history: list[dict] = []

    # ------------------------------------------------------------------
    def initialize(self) -> None:
        """Initialize every island."""
        for island in self.islands:
            island.initialize()
        self.generation = 0

    def migrate(self) -> int:
        """Perform one migration event; returns the number of active edges."""
        with get_tracer().span(
            "archipelago.migrate", islands=len(self.islands)
        ) as span:
            config = self.config
            outgoing = [
                island.emigrants(config.migration_count) if targets else None
                for island, targets in zip(self.islands, self.destinations)
            ]
            inbound: list[list[Population]] = [[] for _ in self.islands]
            for source, targets in enumerate(self.destinations):
                for target in targets:
                    if self.rng.random() <= config.migration_rate:
                        inbound[target].append(outgoing[source])
            for island, migrants in zip(self.islands, inbound):
                if migrants:
                    island.immigrate(Population.concat(migrants))
            active_edges = sum(len(migrants) for migrants in inbound)
            self.migrations += 1
            span.set(active_edges=active_edges, migrations=self.migrations)
        return active_edges

    def step(self) -> None:
        """Advance every island by one generation, migrating when scheduled.

        An archipelago without edges (``isolated``, or one island) never
        migrates, so it counts no migrations and fires no migration events.
        """
        if not self.is_initialized:
            self.initialize()
        for island in self.islands:
            island.step()
        self.generation += 1
        if self.generation % self.config.migration_interval == 0 and any(self.destinations):
            self.migrate()

    # ------------------------------------------------------------------
    # Solver protocol (see repro.solve.api)
    # ------------------------------------------------------------------
    @property
    def is_initialized(self) -> bool:
        """Whether every island has been initialized."""
        return all(island.is_initialized for island in self.islands)

    @property
    def evaluations(self) -> int:
        """Total objective evaluations across all islands."""
        return sum(island.evaluations for island in self.islands)

    def merged_archive(self) -> ParetoArchive:
        """Merge every island archive into one global non-dominated archive."""
        merged = ParetoArchive()
        for island in self.islands:
            merged.add_population(island.archive)
        return merged

    def pareto_front(self) -> Population:
        """Snapshot of the merged non-dominated front across all islands."""
        return self.merged_archive().to_population()

    def result(self) -> "SolveResult":
        """Package the archipelago's current state as a :class:`SolveResult`."""
        from repro.solve.result import SolveResult

        return SolveResult(
            algorithm="pmo2",
            problem=self.islands[0].problem.name,
            population=None,
            archive=self.merged_archive(),
            generations=self.generation,
            evaluations=self.evaluations,
            migrations=self.migrations,
            history=self.history,
            extras={
                "island_archives": [island.archive for island in self.islands],
                "island_fronts": [island.archive.to_population() for island in self.islands],
            },
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Archipelago(islands=%d, topology=%s)" % (
            len(self.islands),
            self.config.topology,
        )
