"""Island-model (archipelago) coarse-grained parallel optimization.

The archipelago hosts several independently evolving optimizer instances
("islands") and periodically lets them exchange their best candidate solutions
along a :class:`~repro.moo.topology.Topology`.  The paper's PMO2 algorithm is
an archipelago of two NSGA-II islands with broadcast migration every 200
generations at probability 0.5 (Sec. 2.1); :mod:`repro.moo.pmo2` builds that
specific configuration on top of this module.

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
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.evaluator import Evaluator
    from repro.solve.result import SolveResult

from repro.exceptions import ConfigurationError
from repro.moo.archive import ParetoArchive
from repro.moo.individual import Individual, Population
from repro.moo.nsga2 import NSGA2, NSGA2Config
from repro.moo.moead import MOEAD, MOEADConfig
from repro.moo.topology import AllToAllTopology, Topology, topology_from_name
from repro.moo.validation import check_at_least, check_choice, check_probability
from repro.obs.trace import get_tracer
from repro.problems.base import Problem

__all__ = [
    "MigrationPolicy",
    "Island",
    "ArchipelagoConfig",
    "Archipelago",
]


@dataclass
class MigrationPolicy:
    """When and how much to migrate.

    Attributes
    ----------
    interval:
        Number of generations between migration events.
    rate:
        Probability that a scheduled migration along one edge actually happens
        (the paper uses 0.5).
    count:
        Number of individuals sent along each active edge.
    """

    interval: int = 200
    rate: float = 0.5
    count: int = 5

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent settings."""
        check_at_least("migration interval", self.interval, 1)
        check_probability("migration rate", self.rate)
        check_at_least("migration count", self.count, 1)


class Island:
    """One niche of the archipelago wrapping a single-population optimizer.

    Any optimizer exposing ``step() / emigrants(count) / immigrate(list)`` and
    the attributes ``population``, ``archive`` and ``evaluations`` can be used;
    the library ships NSGA-II (used by PMO2) and MOEA/D.
    """

    def __init__(self, optimizer: NSGA2 | MOEAD, name: str | None = None) -> None:
        self.optimizer = optimizer
        self.name = name or type(optimizer).__name__
        self.received_migrants = 0
        self.sent_migrants = 0

    # -- delegation -----------------------------------------------------
    def initialize(self) -> None:
        """Initialize the wrapped optimizer."""
        self.optimizer.initialize()

    def step(self) -> None:
        """Advance the wrapped optimizer by one generation."""
        self.optimizer.step()

    def emigrants(self, count: int) -> list[Individual]:
        """Pick ``count`` migrants from the wrapped optimizer."""
        if hasattr(self.optimizer, "emigrants"):
            migrants = self.optimizer.emigrants(count)
        else:
            # Fallback: take the least dominated archive members.
            migrants = [m.copy() for m in list(self.optimizer.archive)[:count]]
        self.sent_migrants += len(migrants)
        return migrants

    def immigrate(self, migrants: list[Individual]) -> None:
        """Inject migrants into the wrapped optimizer."""
        if not migrants:
            return
        if hasattr(self.optimizer, "immigrate"):
            self.optimizer.immigrate(migrants)
        else:
            self.optimizer.archive.add_population(migrants)
        self.received_migrants += len(migrants)

    @property
    def archive(self) -> ParetoArchive:
        """Non-dominated archive of the wrapped optimizer."""
        return self.optimizer.archive

    @property
    def evaluations(self) -> int:
        """Objective evaluations consumed by the wrapped optimizer."""
        return self.optimizer.evaluations

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Island(%s)" % self.name


@dataclass
class ArchipelagoConfig:
    """Declarative configuration of a generic archipelago.

    PMO2 is the paper's specific archipelago (two NSGA-II islands); this
    configuration builds arbitrary homogeneous archipelagos — including
    MOEA/D islands — through :meth:`Archipelago.from_config`, which is also
    how the ``"archipelago"`` entry of the solver registry constructs one.

    Attributes
    ----------
    n_islands:
        Number of islands.
    island_engine:
        ``"nsga2"`` or ``"moead"`` — the optimizer run on every island.
    island_population_size:
        Population (sub-problem count for MOEA/D) of each island.
    migration_interval, migration_rate, migration_count:
        The :class:`MigrationPolicy` knobs.
    topology:
        Migration topology name (see :func:`repro.moo.topology.topology_from_name`).
    archive_capacity:
        Per-island archive bound (``None`` = unbounded).
    """

    n_islands: int = 2
    island_engine: str = "nsga2"
    island_population_size: int = 52
    migration_interval: int = 200
    migration_rate: float = 0.5
    migration_count: int = 5
    topology: str = "all-to-all"
    archive_capacity: int | None = None

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent settings."""
        check_at_least("n_islands", self.n_islands, 1)
        check_choice("island_engine", self.island_engine, ("nsga2", "moead"))
        check_at_least("island_population_size", self.island_population_size, 4)
        MigrationPolicy(
            interval=self.migration_interval,
            rate=self.migration_rate,
            count=self.migration_count,
        ).validate()


class Archipelago:
    """Cooperative island-model driver.

    Parameters
    ----------
    islands:
        The islands to evolve.
    topology:
        Migration topology; defaults to all-to-all, the paper's choice.
    policy:
        Migration schedule; defaults to the paper's 200-generation interval at
        probability 0.5.
    seed:
        Seed of the generator that draws the per-edge migration coin flips.
    evaluator:
        Optional shared :class:`~repro.runtime.evaluator.Evaluator` installed
        on every island optimizer that accepts one, so the whole archipelago
        fans its evaluation batches out over one worker pool (and shares one
        memoization cache).
    """

    def __init__(
        self,
        islands: Sequence[Island],
        topology: Topology | None = None,
        policy: MigrationPolicy | None = None,
        seed: int | None = None,
        evaluator: "Evaluator | None" = None,
    ) -> None:
        if not islands:
            raise ConfigurationError("an archipelago needs at least one island")
        self.islands = list(islands)
        if evaluator is not None:
            for island in self.islands:
                if hasattr(island.optimizer, "evaluator"):
                    island.optimizer.evaluator = evaluator
        self.topology = topology or AllToAllTopology(len(self.islands))
        if self.topology.n_islands != len(self.islands):
            raise ConfigurationError(
                "topology is sized for %d islands but %d were provided"
                % (self.topology.n_islands, len(self.islands))
            )
        self.policy = policy or MigrationPolicy()
        self.policy.validate()
        self.rng = np.random.default_rng(seed)
        self.generation = 0
        self.migrations = 0
        self.history: list[dict] = []
        self._initialized = False

    # ------------------------------------------------------------------
    @classmethod
    def from_config(
        cls,
        problem: Problem,
        config: ArchipelagoConfig | None = None,
        seed: int | None = None,
        evaluator: "Evaluator | None" = None,
    ) -> "Archipelago":
        """Build a homogeneous archipelago from an :class:`ArchipelagoConfig`.

        Island seeds (and the migration driver's seed) are derived
        deterministically from ``seed`` through a
        :class:`numpy.random.SeedSequence`, mirroring PMO2's construction.
        """
        config = config or ArchipelagoConfig()
        config.validate()
        seeds = np.random.SeedSequence(seed).spawn(config.n_islands + 1)
        islands = []
        for i in range(config.n_islands):
            island_seed = int(seeds[i].generate_state(1)[0])
            if config.island_engine == "nsga2":
                optimizer: NSGA2 | MOEAD = NSGA2(
                    problem,
                    config=NSGA2Config(
                        population_size=config.island_population_size,
                        archive_capacity=config.archive_capacity,
                    ),
                    seed=island_seed,
                    evaluator=evaluator,
                )
            else:
                optimizer = MOEAD(
                    problem,
                    config=MOEADConfig(
                        population_size=config.island_population_size,
                        archive_capacity=config.archive_capacity,
                    ),
                    seed=island_seed,
                    evaluator=evaluator,
                )
            islands.append(Island(optimizer, name="%s-%d" % (config.island_engine, i)))
        topology = topology_from_name(config.topology, config.n_islands)
        policy = MigrationPolicy(
            interval=config.migration_interval,
            rate=config.migration_rate,
            count=config.migration_count,
        )
        driver_seed = int(seeds[-1].generate_state(1)[0])
        return cls(islands, topology=topology, policy=policy, seed=driver_seed)

    # ------------------------------------------------------------------
    def initialize(self) -> None:
        """Initialize every island."""
        for island in self.islands:
            island.initialize()
        self._initialized = True
        self.generation = 0

    def migrate(self) -> int:
        """Perform one migration event; returns the number of active edges."""
        with get_tracer().span(
            "archipelago.migrate", islands=len(self.islands)
        ) as span:
            active_edges = 0
            outgoing: dict[int, list[Individual]] = {}
            for i, island in enumerate(self.islands):
                if self.topology.destinations(i):
                    outgoing[i] = island.emigrants(self.policy.count)
            inbound: dict[int, list[Individual]] = {
                i: [] for i in range(len(self.islands))
            }
            for i in range(len(self.islands)):
                for j in self.topology.destinations(i):
                    if self.rng.random() <= self.policy.rate:
                        inbound[j].extend(m.copy() for m in outgoing.get(i, []))
                        active_edges += 1
            for j, migrants in inbound.items():
                self.islands[j].immigrate(migrants)
            self.migrations += 1
            span.set(active_edges=active_edges, migrations=self.migrations)
        return active_edges

    def step(self) -> None:
        """Advance every island by one generation, migrating when scheduled."""
        if not self._initialized:
            self.initialize()
        for island in self.islands:
            island.step()
        self.generation += 1
        if self.generation % self.policy.interval == 0:
            self.migrate()

    # ------------------------------------------------------------------
    # Solver protocol (see repro.solve.api)
    # ------------------------------------------------------------------
    @property
    def is_initialized(self) -> bool:
        """Whether every island has been initialized."""
        return self._initialized

    @property
    def evaluator(self) -> "Evaluator | None":
        """Evaluator the islands share (after a restore, the one restored with them)."""
        return getattr(self.islands[0].optimizer, "evaluator", None)

    @property
    def evaluations(self) -> int:
        """Total objective evaluations across all islands (protocol alias)."""
        return self.total_evaluations

    def pareto_front(self) -> Population:
        """Snapshot of the merged non-dominated front across all islands."""
        return self.merged_archive().to_population()

    def result(self) -> "SolveResult":
        """Package the archipelago's current state as a :class:`SolveResult`."""
        from repro.solve.result import SolveResult

        problem = getattr(self.islands[0].optimizer, "problem", None)
        return SolveResult(
            algorithm="archipelago",
            problem=problem.name if problem is not None else "",
            population=None,
            archive=self.merged_archive(),
            generations=self.generation,
            evaluations=self.total_evaluations,
            migrations=self.migrations,
            history=self.history,
            extras={
                "island_archives": [island.archive for island in self.islands],
                "island_fronts": [
                    island.archive.to_population() for island in self.islands
                ],
            },
        )

    # ------------------------------------------------------------------
    def merged_archive(self, capacity: int | None = None) -> ParetoArchive:
        """Merge every island archive into one global non-dominated archive."""
        merged = ParetoArchive(capacity=capacity)
        for island in self.islands:
            merged.add_population(island.archive)
        return merged

    @property
    def total_evaluations(self) -> int:
        """Total objective evaluations across all islands."""
        return sum(island.evaluations for island in self.islands)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Archipelago(islands=%d, topology=%s)" % (
            len(self.islands),
            type(self.topology).__name__,
        )
