"""PMO2: Parallel Multi-Objective Optimization (the paper's algorithm).

PMO2 (Sec. 2.1) is an archipelago of multi-objective optimizers.  The adopted
configuration — the one every experiment of the paper uses and the one built
by :func:`PMO2.paper_configuration` — is:

* two islands,
* each island running an independent instance of NSGA-II,
* an all-to-all (broadcast) migration topology,
* migration every 200 generations,
* migration probability 0.5.

This module exposes a convenience class that assembles that archipelago
behind the :class:`repro.solve.Solver` protocol; run it with
``solve(problem, "pmo2", termination=...)``, which returns the merged
non-dominated front together with run statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.moo.archipelago import Archipelago, Island, MigrationPolicy
from repro.moo.individual import Population
from repro.moo.nsga2 import NSGA2, NSGA2Config
from repro.moo.topology import topology_from_name
from repro.moo.validation import check_at_least, check_even
from repro.problems.base import Problem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.evaluator import Evaluator
    from repro.solve.result import SolveResult

__all__ = ["PMO2Config", "PMO2"]


@dataclass
class PMO2Config:
    """Configuration of the PMO2 archipelago.

    The defaults reproduce the paper's adopted configuration; the extra knobs
    (number of islands, topology, per-island NSGA-II settings) expose the rest
    of the framework the paper describes.  How evaluations execute (worker
    processes, caching) is not configured here: :func:`repro.solve.solve`
    decides it through its ``n_workers`` / ``cache`` / ``evaluator`` knobs.
    """

    n_islands: int = 2
    island_population_size: int = 52
    migration_interval: int = 200
    migration_rate: float = 0.5
    migration_count: int = 5
    topology: str = "all-to-all"
    nsga2: NSGA2Config = field(default_factory=NSGA2Config)
    archive_capacity: int | None = None

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent settings."""
        check_at_least("n_islands", self.n_islands, 1)
        check_at_least("island_population_size", self.island_population_size, 4)
        check_even("island_population_size", self.island_population_size)
        MigrationPolicy(
            interval=self.migration_interval,
            rate=self.migration_rate,
            count=self.migration_count,
        ).validate()


class PMO2:
    """The Parallel Multi-Objective Optimization framework.

    Parameters
    ----------
    problem:
        Problem to minimize.
    config:
        PMO2 configuration; ``None`` uses the paper's adopted configuration.
    seed:
        Master seed; island seeds are derived from it deterministically.
    evaluator:
        Optional :class:`~repro.runtime.evaluator.Evaluator` shared by every
        island (a :class:`~repro.runtime.evaluator.SerialEvaluator` by
        default).  Evaluator choice never changes results — a pooled run is
        bitwise identical to a serial run of the same seed.
    """

    def __init__(
        self,
        problem: Problem,
        config: PMO2Config | None = None,
        seed: int | None = None,
        evaluator: "Evaluator | None" = None,
    ) -> None:
        self.problem = problem
        self.config = config or PMO2Config()
        self.config.validate()
        self.seed = seed
        self._seed_sequence = np.random.SeedSequence(seed)
        self.archipelago = self._build_archipelago(evaluator)

    # ------------------------------------------------------------------
    @classmethod
    def paper_configuration(
        cls, problem: Problem, seed: int | None = None, population_size: int = 52
    ) -> "PMO2":
        """PMO2 exactly as adopted in the paper (2x NSGA-II, broadcast, 200/0.5)."""
        config = PMO2Config(
            n_islands=2,
            island_population_size=population_size,
            migration_interval=200,
            migration_rate=0.5,
            topology="all-to-all",
        )
        return cls(problem, config=config, seed=seed)

    def _build_archipelago(self, evaluator: "Evaluator | None") -> Archipelago:
        seeds = self._seed_sequence.spawn(self.config.n_islands + 1)
        islands = []
        for i in range(self.config.n_islands):
            nsga_config = replace(
                self.config.nsga2,
                population_size=self.config.island_population_size,
                archive_capacity=self.config.archive_capacity,
            )
            island_seed = int(seeds[i].generate_state(1)[0])
            optimizer = NSGA2(self.problem, config=nsga_config, seed=island_seed)
            islands.append(Island(optimizer, name="nsga2-%d" % i))
        topology = topology_from_name(self.config.topology, self.config.n_islands)
        policy = MigrationPolicy(
            interval=self.config.migration_interval,
            rate=self.config.migration_rate,
            count=self.config.migration_count,
        )
        driver_seed = int(seeds[-1].generate_state(1)[0])
        return Archipelago(
            islands, topology=topology, policy=policy, seed=driver_seed, evaluator=evaluator
        )

    # ------------------------------------------------------------------
    # Solver protocol (see repro.solve.api)
    # ------------------------------------------------------------------
    @property
    def is_initialized(self) -> bool:
        """Whether every island has been initialized."""
        return self.archipelago.is_initialized

    @property
    def generation(self) -> int:
        """Generations completed by the archipelago."""
        return self.archipelago.generation

    @property
    def evaluations(self) -> int:
        """Total objective evaluations across all islands."""
        return self.archipelago.total_evaluations

    @property
    def migrations(self) -> int:
        """Migration events performed so far."""
        return self.archipelago.migrations

    @property
    def checkpoint_target(self) -> Archipelago:
        """Object whose state checkpoints travel with (the archipelago)."""
        return self.archipelago

    @property
    def evaluator(self) -> "Evaluator":
        """Evaluator the islands share (after a restore, the one restored with them)."""
        return self.archipelago.evaluator

    def initialize(self) -> None:
        """Initialize every island."""
        self.archipelago.initialize()

    def step(self) -> None:
        """Advance every island by one generation (migrating when scheduled)."""
        self.archipelago.step()

    def pareto_front(self) -> Population:
        """Snapshot of the merged non-dominated front across all islands."""
        return self.archipelago.pareto_front()

    def result(self) -> "SolveResult":
        """Package the archipelago's current state as PMO2's :class:`SolveResult`."""
        result = self.archipelago.result()
        result.algorithm = "pmo2"
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "PMO2(islands=%d, topology=%s)" % (
            self.config.n_islands,
            self.config.topology,
        )
