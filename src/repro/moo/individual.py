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

__all__ = [
    "Individual",
    "Population",
    "objective_matrix_of",
    "violation_vector_of",
    "decision_matrix_of",
]


def _plain(value):
    """Recursively convert numpy scalars/arrays to JSON-friendly Python."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def objective_matrix_of(individuals: Sequence["Individual"]) -> np.ndarray:
    """Stack evaluated individuals' objectives into an ``(n, m)`` matrix.

    The single column-stacking routine shared by :class:`Population`'s
    cached views, the archive and MOEA/D's incumbent columns.

    Raises
    ------
    ConfigurationError
        If any individual has not been evaluated yet.
    """
    if not individuals:
        return np.empty((0, 0))
    for individual in individuals:
        if individual.objectives is None:
            raise ConfigurationError("population contains unevaluated individuals")
    return np.vstack([individual.objectives for individual in individuals])


def violation_vector_of(individuals: Sequence["Individual"]) -> np.ndarray:
    """Stack individuals' aggregate constraint violations into an ``(n,)`` vector."""
    return np.array([individual.constraint_violation for individual in individuals])


def decision_matrix_of(individuals: Sequence["Individual"]) -> np.ndarray:
    """Stack individuals' decision vectors into an ``(n, n_var)`` matrix."""
    if not individuals:
        return np.empty((0, 0))
    return np.vstack([individual.x for individual in individuals])


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

    def to_dict(self) -> dict:
        """JSON-serializable view of this individual (see :meth:`from_dict`).

        numpy containers are converted to plain lists/scalars, so the result
        round-trips through :mod:`json` unchanged.  Complements the columnar
        front format of :mod:`repro.core.artifacts` (which stores whole
        objective/decision matrices) when single individuals need to travel.
        """
        return {
            "x": self.x.tolist(),
            "objectives": None if self.objectives is None else self.objectives.tolist(),
            "constraint_violation": float(self.constraint_violation),
            "rank": self.rank,
            "crowding": float(self.crowding),
            "info": _plain(self.info),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Individual":
        """Rebuild an individual from a :meth:`to_dict` payload.

        Example
        -------
        >>> import numpy as np
        >>> original = Individual(np.array([1.0, 2.0]))
        >>> clone = Individual.from_dict(original.to_dict())
        >>> np.array_equal(clone.x, original.x)
        True
        """
        individual = cls(np.asarray(payload["x"], dtype=float))
        objectives = payload.get("objectives")
        if objectives is not None:
            individual.objectives = np.asarray(objectives, dtype=float)
        individual.constraint_violation = float(payload.get("constraint_violation", 0.0))
        individual.rank = payload.get("rank")
        individual.crowding = float(payload.get("crowding", 0.0))
        individual.info = dict(payload.get("info", {}))
        return individual

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
        """Restore from a pickle (old checkpoints used the raw attribute)."""
        self._individuals = state.get("individuals", state.get("_individuals", []))
        self._views = {}

    # ------------------------------------------------------------------
    # Columnar views (consumed by repro.moo.kernels)
    # ------------------------------------------------------------------
    def invalidate_views(self) -> None:
        """Drop the cached columnar views; they rebuild on next access.

        Called automatically by every mutating method of the container;
        call it manually after mutating an :class:`Individual` in place.
        """
        views = getattr(self, "_views", None)
        if views is None:
            self._views = {}
        else:
            views.clear()

    def _view(self, key: str) -> np.ndarray:
        views = getattr(self, "_views", None)
        if views is None:
            views = self._views = {}
        cached = views.get(key)
        if cached is None:
            cached = views[key] = self._build_view(key)
            cached.setflags(write=False)
        return cached

    def _build_view(self, key: str) -> np.ndarray:
        if key == "X":
            return decision_matrix_of(self._individuals)
        if key == "CV":
            return violation_vector_of(self._individuals)
        return objective_matrix_of(self._individuals)

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
    # Evaluation and views
    # ------------------------------------------------------------------
    def evaluate(self, problem: Problem, evaluator: "Evaluator | None" = None) -> int:
        """Evaluate every not-yet-evaluated individual.

        The pending individuals are stacked into one ``(n, n_var)`` decision
        matrix and evaluated columnar — through the given
        :class:`~repro.runtime.evaluator.Evaluator` when provided (which may
        fan the matrix out over worker processes or answer rows from a
        cache), otherwise through :meth:`Problem.evaluate_matrix` in-process.

        Returns the number of problem evaluations performed, which the
        optimizers use to track their budget.
        """
        pending = [ind for ind in self._individuals if not ind.is_evaluated]
        if not pending:
            return 0
        X = np.vstack([individual.x for individual in pending])
        if evaluator is None:
            batch = problem.evaluate_matrix(X)
        else:
            batch = evaluator.evaluate_matrix(problem, X)
        for index, individual in enumerate(pending):
            individual.set_evaluation(batch.result(index))
        self.invalidate_views()
        return len(pending)

    def objective_matrix(self) -> np.ndarray:
        """Return an ``(n, n_obj)`` matrix of objective vectors (a copy).

        Raises
        ------
        ConfigurationError
            If any individual has not been evaluated yet.
        """
        return np.array(self.F)

    def decision_matrix(self) -> np.ndarray:
        """Return an ``(n, n_var)`` matrix of decision vectors (a copy)."""
        return np.array(self.X)

    def violations(self) -> np.ndarray:
        """Return the vector of aggregate constraint violations (a copy)."""
        return np.array(self.CV)

    def feasible(self) -> "Population":
        """Sub-population of feasible individuals."""
        return Population(ind for ind in self._individuals if ind.is_feasible)

    def copy(self) -> "Population":
        """Deep copy of the population."""
        return Population(individual.copy() for individual in self._individuals)

    def best_by_objective(self, index: int) -> Individual:
        """Return the individual minimizing objective ``index``."""
        if not self._individuals:
            raise ConfigurationError("cannot select from an empty population")
        return min(self._individuals, key=lambda ind: float(ind.objectives[index]))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Population(size=%d)" % len(self._individuals)
