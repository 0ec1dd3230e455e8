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

An unbounded archive first drops the offered rows the fold would reject
with no side effect: a row whose ``F``, ``CV`` and ``X`` equal a live
member's, when no offered row dominates that member.  Only a dominating
candidate evicts a member of an unbounded archive, so the member is still
live when the row's turn comes, and the fold rejects the row as its twin.
NSGA-II offers its whole surviving population every generation, so about
half the offered rows are such repeats.  A bounded archive folds every row
(crowding truncation can evict the member and let its repeat back in), and
so does a row holding a NaN or an infinity.
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
        Without a capacity, finite rows that repeat a live member no offered
        row dominates skip the fold, which would reject them unchanged; a
        bounded archive, or a row with a NaN or an infinity, always folds
        (see the module docstring).
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
        if self.capacity is None and len(self._members):
            fold = ~self._repeats(offered)
            if not fold.all():
                offered = offered.take(np.flatnonzero(fold))
                if not len(offered):
                    return 0
        merged = Population.concat([self._members, offered])
        kept, accepted = kernels.archive_prune(
            merged.F, merged.CV, merged.X, len(self._members), capacity=self.capacity
        )
        self._members = merged.take(kept)
        return accepted

    def _repeats(self, offered: Population) -> np.ndarray:
        """Which offered rows the fold would reject with no side effect.

        A row repeats a member when its ``F`` and ``CV`` bytes equal the
        member's (one dict lookup) and its ``X`` equals the member's.  The
        fold then rejects it as the member's twin, provided the member is
        still live when the row's turn comes: with no capacity only a
        dominating candidate evicts a member, so a member that no offered
        row dominates is live throughout.  Rows holding a NaN or an infinity
        always take the fold.
        """
        F, CV, X = offered.F, offered.CV, offered.X
        members = {key: row for row, key in enumerate(_row_keys(self.F, self.CV))}
        twins = np.array([members.get(key, -1) for key in _row_keys(F, CV)], dtype=np.intp)
        finite = np.isfinite(F).all(axis=1) & np.isfinite(CV) & np.isfinite(X).all(axis=1)
        rows = np.flatnonzero(finite & (twins >= 0))
        rows = rows[(X[rows] == self.X[twins[rows]]).all(axis=1)]
        repeats = np.zeros(len(offered), dtype=bool)
        if not rows.size:
            return repeats
        # Only fresh rows can evict a member: a repeat has a member's F and
        # CV, and the members are mutually non-dominated.
        fresh = np.ones(len(offered), dtype=bool)
        fresh[rows] = False
        twins = twins[rows]
        evictable = kernels.constrained_domination_blocks(
            F[fresh], CV[fresh], self.F[twins], self.CV[twins]
        ).any(axis=0)
        repeats[rows[~evictable]] = True
        return repeats

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


def _row_keys(F: np.ndarray, CV: np.ndarray) -> list[bytes]:
    """The bytes of each row of ``[F | CV]``."""
    rows = np.column_stack([F, CV])
    return rows.view("V%d" % (rows.dtype.itemsize * rows.shape[1])).ravel().tolist()
