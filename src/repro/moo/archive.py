"""Bounded non-dominated archive.

Islands and the PMO2 driver keep an external archive of the non-dominated
solutions discovered so far.  The archive is the object that the Pareto-front
mining (:mod:`repro.moo.mining`), the front-quality metrics
(:mod:`repro.moo.metrics`) and the robustness analysis
(:mod:`repro.moo.robustness`) all consume.

The members live in a :class:`~repro.moo.individual.Population`, whose
``X``/``F``/``CV`` matrices the archive exposes as its own.  Insertion runs
on the batched :func:`repro.moo.kernels.archive_prune` kernel: a whole
population is folded into the archive as one array concatenation, and the
survivors are one row selection of it.  The kernel
computes the dominance and objective-closeness blocks of a chunk of
candidates against the live members in one go, packs them into bitmasks,
and replays sequential insertion (member order, duplicate rejection,
per-insertion crowding truncation) as bit arithmetic on the live set, so a
candidate costs a few integer operations instead of a Python dominance loop
per member.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.exceptions import ConfigurationError
from repro.moo import kernels
from repro.moo.individual import Individual, Population

__all__ = ["ParetoArchive"]


class ParetoArchive:
    """Archive of mutually non-dominated, feasibility-preferred solutions.

    Parameters
    ----------
    capacity:
        Optional maximum number of archived solutions.  When the archive
        overflows, the most crowded members are discarded (crowding-distance
        truncation), which preserves the extremes of the front.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ConfigurationError("archive capacity must be positive or None")
        self.capacity = capacity
        self._members = Population()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[Individual]:
        return iter(self._members)

    def __getitem__(self, index: int) -> Individual:
        return self._members[index]

    @property
    def X(self) -> np.ndarray:
        """Read-only ``(n, n_var)`` decision matrix of the members."""
        return self._members.X

    @property
    def F(self) -> np.ndarray:
        """Read-only ``(n, n_obj)`` objective matrix of the members."""
        return self._members.F

    @property
    def CV(self) -> np.ndarray:
        """Read-only ``(n,)`` constraint-violation vector of the members."""
        return self._members.CV

    # ------------------------------------------------------------------
    def add(self, candidate: Individual) -> bool:
        """Insert one evaluated individual.

        Returns ``True`` when the candidate enters the archive (i.e. it is not
        dominated by any current member); dominated members are removed.
        """
        return self._fold(candidate.copy()._population) == 1

    def add_population(self, population: Population | Iterable[Individual]) -> int:
        """Insert every individual of a population; returns how many entered.

        The resulting membership (order included) and the count are
        identical to calling :meth:`add` on each individual in order.
        """
        if not isinstance(population, Population):
            population = Population(population)
        return self._fold(population)

    def _fold(self, offered: Population) -> int:
        """Fold ``offered`` into the members with one :func:`~repro.moo.kernels.archive_prune`."""
        if not len(offered):
            return 0
        if not offered._evaluated.all():
            raise ConfigurationError("cannot archive an unevaluated individual")
        merged = Population.concat([self._members, offered])
        kept, accepted = kernels.archive_prune(
            merged.F, merged.CV, merged.X, len(self._members), capacity=self.capacity
        )
        self._members = merged.take(kept)
        return accepted

    # ------------------------------------------------------------------
    @classmethod
    def from_individuals(
        cls, individuals: Iterable[Individual], capacity: int | None = None
    ) -> "ParetoArchive":
        """Build an archive from evaluated individuals (e.g. a recorded run).

        Dominated members are filtered on insertion, so re-hydrated fronts
        from :func:`repro.core.artifacts.load_front` become well-formed
        archives again.

        Example
        -------
        >>> import numpy as np
        >>> from repro.moo.individual import Individual
        >>> member = Individual(np.array([0.5]))
        >>> member.objectives = np.array([1.0, 2.0])
        >>> len(ParetoArchive.from_individuals([member]))
        1
        """
        archive = cls(capacity=capacity)
        archive.add_population(individuals)
        return archive

    def to_population(self) -> Population:
        """Copy the archive into a :class:`Population`."""
        return self._members.copy()

    def clear(self) -> None:
        """Remove every member."""
        self._members = Population()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ParetoArchive(size=%d, capacity=%r)" % (len(self._members), self.capacity)
