"""Individuals and populations used by the evolutionary optimizers.

An :class:`Individual` bundles a decision vector with its evaluation result
and with the bookkeeping fields that NSGA-II needs (non-domination rank and
crowding distance).  A :class:`Population` is a thin list-like container with
convenience constructors and views that the algorithms share.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.problems.base import Problem
from repro.problems.batch import EvaluationResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.runtime.evaluator import Evaluator

__all__ = ["Individual", "Population"]


class Individual:
    """One candidate solution.

    Attributes
    ----------
    x:
        Decision vector (owned copy; mutating it after evaluation invalidates
        the cached objectives, so variation operators always build new
        individuals instead).
    objectives:
        Minimized objective vector, ``None`` until evaluated.
    constraint_violation:
        Aggregate constraint violation (0.0 when feasible or unconstrained).
    rank:
        Non-domination rank assigned by the sorting procedure (0 = best front).
    crowding:
        Crowding distance within its front.
    info:
        Evaluation by-products propagated from :class:`EvaluationResult`.
    """

    __slots__ = ("x", "objectives", "constraint_violation", "rank", "crowding", "info")

    def __init__(self, x: np.ndarray) -> None:
        self.x = np.array(x, dtype=float, copy=True)
        self.objectives: np.ndarray | None = None
        self.constraint_violation: float = 0.0
        self.rank: int | None = None
        self.crowding: float = 0.0
        self.info: dict = {}

    # ------------------------------------------------------------------
    @property
    def is_evaluated(self) -> bool:
        """``True`` once :meth:`set_evaluation` has been called."""
        return self.objectives is not None

    @property
    def is_feasible(self) -> bool:
        """``True`` when the aggregate constraint violation is zero."""
        return self.constraint_violation == 0.0

    def set_evaluation(self, result: EvaluationResult) -> None:
        """Attach the outcome of a problem evaluation to this individual."""
        self.objectives = np.asarray(result.objectives, dtype=float)
        self.constraint_violation = result.total_violation
        self.info = dict(result.info)

    def copy(self) -> "Individual":
        """Deep copy (decision vector and cached evaluation)."""
        clone = Individual(self.x)
        if self.objectives is not None:
            clone.objectives = self.objectives.copy()
        clone.constraint_violation = self.constraint_violation
        clone.rank = self.rank
        clone.crowding = self.crowding
        clone.info = dict(self.info)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        objectives = (
            np.array2string(self.objectives, precision=4)
            if self.objectives is not None
            else "unevaluated"
        )
        return "Individual(objectives=%s, cv=%.3g)" % (objectives, self.constraint_violation)


class Population:
    """Ordered collection of :class:`Individual` objects.

    Besides the list-like protocol, the population exposes lazily-cached
    *columnar views* — :attr:`X` (decision matrix), :attr:`F` (objective
    matrix) and :attr:`CV` (violation vector) — that the vectorized kernels
    of :mod:`repro.moo.kernels` consume.  The views are built once and
    reused until the population mutates (``append`` / ``extend`` /
    ``evaluate``), so algorithms stop re-stacking per-individual attributes
    every generation.  Code that mutates :class:`Individual` objects
    directly (rather than through this container) must call
    :meth:`invalidate_views` afterwards.
    """

    def __init__(self, individuals: Iterable[Individual] | None = None) -> None:
        self._individuals: list[Individual] = list(individuals or [])
        self._views: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls, problem: Problem, size: int, rng: np.random.Generator
    ) -> "Population":
        """Create ``size`` individuals sampled uniformly in the decision box."""
        if size <= 0:
            raise ConfigurationError("population size must be positive")
        return cls(Individual(problem.random_solution(rng)) for _ in range(size))

    @classmethod
    def from_vectors(cls, vectors: Sequence[np.ndarray]) -> "Population":
        """Wrap raw decision vectors into unevaluated individuals."""
        return cls(Individual(v) for v in vectors)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._individuals)

    def __iter__(self) -> Iterator[Individual]:
        return iter(self._individuals)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Population(self._individuals[index])
        return self._individuals[index]

    def append(self, individual: Individual) -> None:
        """Add one individual at the end of the population."""
        self._individuals.append(individual)
        self.invalidate_views()

    def extend(self, individuals: Iterable[Individual]) -> None:
        """Add several individuals at the end of the population."""
        self._individuals.extend(individuals)
        self.invalidate_views()

    def __getstate__(self) -> dict:
        """Pickle only the individuals; columnar views rebuild on demand."""
        return {"individuals": self._individuals}

    def __setstate__(self, state: dict) -> None:
        """Restore from a pickle; the views start empty."""
        self._individuals = state["individuals"]
        self._views = {}

    # ------------------------------------------------------------------
    # Columnar views (consumed by repro.moo.kernels)
    # ------------------------------------------------------------------
    def invalidate_views(self) -> None:
        """Drop the cached columnar views; they rebuild on next access.

        Called automatically by every mutating method of the container;
        call it manually after mutating an :class:`Individual` in place.
        """
        self._views.clear()

    def _view(self, key: str) -> np.ndarray:
        cached = self._views.get(key)
        if cached is None:
            cached = self._views[key] = self._build_view(key)
            cached.setflags(write=False)
        return cached

    def _build_view(self, key: str) -> np.ndarray:
        """Stack one column of the individuals: ``X``, ``F`` or ``CV``."""
        individuals = self._individuals
        if key == "CV":
            return np.array([individual.constraint_violation for individual in individuals])
        if not individuals:
            return np.empty((0, 0))
        if key == "X":
            return np.vstack([individual.x for individual in individuals])
        for individual in individuals:
            if individual.objectives is None:
                raise ConfigurationError("population contains unevaluated individuals")
        return np.vstack([individual.objectives for individual in individuals])

    @property
    def X(self) -> np.ndarray:
        """Read-only cached ``(n, n_var)`` decision matrix."""
        return self._view("X")

    @property
    def F(self) -> np.ndarray:
        """Read-only cached ``(n, n_obj)`` objective matrix.

        Raises
        ------
        ConfigurationError
            If any individual has not been evaluated yet.
        """
        return self._view("F")

    @property
    def CV(self) -> np.ndarray:
        """Read-only cached ``(n,)`` aggregate constraint-violation vector."""
        return self._view("CV")

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, problem: Problem, evaluator: "Evaluator") -> int:
        """Evaluate every not-yet-evaluated individual.

        The pending individuals are stacked into one ``(n, n_var)`` decision
        matrix and evaluated columnar through ``evaluator`` (which may fan
        the matrix out over worker processes or answer rows from a cache)
        and counted in its ledger.

        Returns the number of problem evaluations performed, which the
        optimizers use to track their budget.
        """
        pending = [ind for ind in self._individuals if not ind.is_evaluated]
        if not pending:
            return 0
        X = np.vstack([individual.x for individual in pending])
        batch = evaluator.evaluate_matrix(problem, X)
        for index, individual in enumerate(pending):
            individual.set_evaluation(batch.result(index))
        self.invalidate_views()
        return len(pending)

    def copy(self) -> "Population":
        """Deep copy of the population."""
        return Population(individual.copy() for individual in self._individuals)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Population(size=%d)" % len(self._individuals)
