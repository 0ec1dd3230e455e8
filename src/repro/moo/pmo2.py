"""PMO2: Parallel Multi-Objective Optimization (the paper's algorithm).

PMO2 (Sec. 2.1) is an archipelago of multi-objective optimizers.  The adopted
configuration — the one every experiment of the paper uses, and the defaults
of :class:`PMO2Config` — is:

* two islands,
* each island running an independent instance of NSGA-II,
* an all-to-all (broadcast) migration topology,
* migration every 200 generations,
* migration probability 0.5.

:func:`build_pmo2` assembles that :class:`~repro.moo.archipelago.Archipelago`
and is the ``"pmo2"`` entry of the solver registry; run it with
``solve(problem, "pmo2", termination=...)``, which returns the merged
non-dominated front together with run statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.moo.archipelago import Archipelago, Island, MigrationPolicy
from repro.moo.nsga2 import NSGA2, NSGA2Config
from repro.moo.topology import topology_from_name
from repro.moo.validation import check_at_least, check_even
from repro.problems.base import Problem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.evaluator import Evaluator

__all__ = ["PMO2Config", "build_pmo2"]


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
    migration_interval, migration_rate, migration_count:
        The :class:`MigrationPolicy` knobs.
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
        MigrationPolicy(
            interval=self.migration_interval,
            rate=self.migration_rate,
            count=self.migration_count,
        ).validate()


def build_pmo2(
    problem: Problem,
    config: PMO2Config | None = None,
    seed: int | None = None,
    evaluator: "Evaluator | None" = None,
) -> Archipelago:
    """Build the PMO2 archipelago of ``config`` for ``problem``.

    Island seeds (and the migration driver's seed) are derived
    deterministically from ``seed`` through a
    :class:`numpy.random.SeedSequence`.  ``evaluator`` is shared by every
    island (a :class:`~repro.runtime.evaluator.SerialEvaluator` by default);
    evaluator choice never changes results.

    Example
    -------
    >>> from repro.moo.testproblems import Schaffer
    >>> archipelago = build_pmo2(Schaffer(), PMO2Config(island_population_size=12), seed=0)
    >>> [island.name for island in archipelago.islands]
    ['nsga2-0', 'nsga2-1']
    """
    config = config or PMO2Config()
    config.validate()
    seeds = np.random.SeedSequence(seed).spawn(config.n_islands + 1)
    islands = []
    for i in range(config.n_islands):
        island_seed = int(seeds[i].generate_state(1)[0])
        optimizer = NSGA2(
            problem,
            config=NSGA2Config(
                population_size=config.island_population_size,
                archive_capacity=config.archive_capacity,
            ),
            seed=island_seed,
        )
        islands.append(Island(optimizer, name="nsga2-%d" % i))
    topology = topology_from_name(config.topology, config.n_islands)
    policy = MigrationPolicy(
        interval=config.migration_interval,
        rate=config.migration_rate,
        count=config.migration_count,
    )
    driver_seed = int(seeds[-1].generate_state(1)[0])
    return Archipelago(
        islands, topology=topology, policy=policy, seed=driver_seed, evaluator=evaluator
    )
