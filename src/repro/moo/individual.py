"""Individuals and populations used by the evolutionary optimizers.

A :class:`Population` owns its data as arrays: the decision matrix ``X``,
the objective matrix ``F``, the aggregate constraint violations ``CV``, and
the NSGA-II bookkeeping ``rank`` (non-domination rank, ``-1`` when unranked)
and ``crowding`` (crowding distance), one row per member.  The optimizers
and the kernels of :mod:`repro.moo.kernels` work on these arrays directly:
offspring arrive as one matrix, evaluation fills ``F`` and ``CV`` from one
batch, and the parent+offspring union, environmental selection and the
archive are array concatenations and row selections.

An :class:`Individual` is a view of one row.  Indexing or iterating a
population yields row views, whose attribute reads and writes go to the
population's arrays; constructing ``Individual(x)`` makes a free-standing
candidate, the single row of a population of its own.  Building a
population from individuals copies their rows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.problems.base import Problem

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.runtime.evaluator import Evaluator

__all__ = ["Individual", "Population"]


class Individual:
    """One candidate solution: a view of one row of a :class:`Population`.

    Reading or setting an attribute reads or writes the population's row
    (``rank`` and ``crowding`` are read-only here: sorting writes them into
    the population's vectors).
    ``Individual(x)`` builds a free-standing candidate: the one row of a
    population of its own, holding a copy of ``x``.
    """

    __slots__ = ("_population", "_row")

    def __init__(self, x: np.ndarray) -> None:
        self._population = Population.from_matrix(np.asarray(x, dtype=float).reshape(1, -1))
        self._row = 0

    @classmethod
    def _view(cls, population: "Population", row: int) -> "Individual":
        view = object.__new__(cls)
        view._population = population
        view._row = row
        return view

    # ------------------------------------------------------------------
    @property
    def x(self) -> np.ndarray:
        """Decision vector (a writable view of the row)."""
        return self._population._X[self._row]

    @property
    def objectives(self) -> np.ndarray | None:
        """Minimized objective vector, ``None`` until evaluated."""
        population = self._population
        return population._F[self._row] if population._evaluated[self._row] else None

    @objectives.setter
    def objectives(self, value: np.ndarray | None) -> None:
        self._population._set_objectives(self._row, value)

    @property
    def constraint_violation(self) -> float:
        """Aggregate constraint violation (0.0 when feasible or unconstrained)."""
        return float(self._population._CV[self._row])

    @constraint_violation.setter
    def constraint_violation(self, value: float) -> None:
        self._population._CV[self._row] = value

    @property
    def rank(self) -> int | None:
        """Non-domination rank (0 = best front), ``None`` until assigned."""
        rank = int(self._population.rank[self._row])
        return None if rank < 0 else rank

    @property
    def crowding(self) -> float:
        """Crowding distance within its front."""
        return float(self._population.crowding[self._row])

    @property
    def is_evaluated(self) -> bool:
        """``True`` once objectives have been attached."""
        return bool(self._population._evaluated[self._row])

    @property
    def is_feasible(self) -> bool:
        """``True`` when the aggregate constraint violation is zero."""
        return self.constraint_violation == 0.0

    def copy(self) -> "Individual":
        """Free-standing deep copy (decision vector and cached evaluation)."""
        return Individual._view(self._population.take([self._row]), 0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        objectives = self.objectives
        shown = (
            np.array2string(objectives, precision=4) if objectives is not None else "unevaluated"
        )
        return "Individual(objectives=%s, cv=%.3g)" % (shown, self.constraint_violation)


class Population:
    """Ordered, array-backed collection of candidate solutions.

    ``X`` (decisions), ``F`` (objectives) and ``CV`` (aggregate violations)
    are read-only views of the population's matrices; ``rank`` and
    ``crowding`` are its writable NSGA-II bookkeeping vectors.  Indexing
    with an integer returns an :class:`Individual` row view, with a slice a
    new population holding copies of the rows.
    """

    def __init__(self, individuals: Iterable[Individual] | None = None) -> None:
        members = list(individuals) if individuals is not None else []
        if not members:
            self._adopt(np.empty((0, 0)))
            return
        objectives = [member.objectives for member in members]
        evaluated = np.array([row is not None for row in objectives])
        F = None
        if evaluated.any():
            blank = np.full(next(row for row in objectives if row is not None).size, np.nan)
            F = np.vstack([blank if row is None else row for row in objectives])
        self._adopt(
            np.vstack([member.x for member in members]),
            F,
            np.array([member.constraint_violation for member in members]),
            np.array([member._population.rank[member._row] for member in members]),
            np.array([member.crowding for member in members]),
            evaluated,
        )

    def _adopt(
        self,
        X: np.ndarray,
        F: np.ndarray | None = None,
        CV: np.ndarray | None = None,
        rank: np.ndarray | None = None,
        crowding: np.ndarray | None = None,
        evaluated: np.ndarray | None = None,
    ) -> None:
        n = X.shape[0]
        self._X = X
        self._F = F
        self._CV = np.zeros(n) if CV is None else CV
        if rank is None:
            rank = np.empty(n, dtype=np.int64)
            rank.fill(-1)
        self.rank = rank
        self.crowding = np.zeros(n) if crowding is None else crowding
        if evaluated is None:
            evaluated = np.zeros(n, dtype=bool) if F is None else np.ones(n, dtype=bool)
        self._evaluated = evaluated

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_matrix(cls, X: np.ndarray) -> "Population":
        """Unevaluated, unranked members, one per row of ``X`` (owned, C order)."""
        population = cls.__new__(cls)
        population._adopt(np.array(X, dtype=float, order="C"))
        return population

    @classmethod
    def random(
        cls, problem: Problem, size: int, rng: np.random.Generator
    ) -> "Population":
        """Create ``size`` individuals sampled uniformly in the decision box."""
        if size <= 0:
            raise ConfigurationError("population size must be positive")
        return cls.from_matrix([problem.random_solution(rng) for _ in range(size)])

    @classmethod
    def from_vectors(cls, vectors: Sequence[np.ndarray]) -> "Population":
        """Wrap raw decision vectors into unevaluated individuals."""
        if len(vectors) == 0:
            return cls()
        return cls.from_matrix(np.vstack(vectors))

    @classmethod
    def concat(cls, parts: Sequence["Population"]) -> "Population":
        """One population holding copies of the rows of ``parts``, in order."""
        parts = [part for part in parts if len(part)]
        if not parts:
            return cls()
        if len(parts) == 1:
            return parts[0].copy()
        evaluated = np.concatenate([part._evaluated for part in parts])
        F = None
        if evaluated.any():
            width = next(part._F.shape[1] for part in parts if part._F is not None)
            F = np.concatenate(
                [
                    part._F if part._F is not None else np.full((len(part), width), np.nan)
                    for part in parts
                ]
            )
        population = cls.__new__(cls)
        population._adopt(
            np.concatenate([part._X for part in parts]),
            F,
            np.concatenate([part._CV for part in parts]),
            np.concatenate([part.rank for part in parts]),
            np.concatenate([part.crowding for part in parts]),
            evaluated,
        )
        return population

    def take(self, rows: Sequence[int] | np.ndarray) -> "Population":
        """A new population holding copies of ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        population = type(self).__new__(type(self))
        population._adopt(
            self._X[rows],
            None if self._F is None else self._F[rows],
            self._CV[rows],
            self.rank[rows],
            self.crowding[rows],
            self._evaluated[rows],
        )
        return population

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._X.shape[0]

    def __iter__(self) -> Iterator[Individual]:
        return (Individual._view(self, row) for row in range(len(self)))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(range(len(self))[index])
        return Individual._view(self, range(len(self))[index])

    def append(self, individual: Individual) -> None:
        """Add one individual at the end of the population (a copy of its row)."""
        self.extend([individual])

    def extend(self, individuals: Iterable[Individual]) -> None:
        """Add several individuals at the end (copies their rows and every array).

        Each call rebuilds the population's arrays: build a population in
        one step (:meth:`from_matrix`, :meth:`from_vectors`, :meth:`concat`)
        rather than row by row.
        """
        merged = Population.concat([self, Population(individuals)])
        self._adopt(
            merged._X,
            merged._F,
            merged._CV,
            merged.rank,
            merged.crowding,
            merged._evaluated,
        )

    def __getstate__(self) -> dict:
        """Pickle the arrays; the read-only views rebuild on demand."""
        state = dict(self.__dict__)
        state.pop("_views", None)
        return state

    # ------------------------------------------------------------------
    # Matrix views (consumed by repro.moo.kernels)
    # ------------------------------------------------------------------
    def _read_only(self, key: str, array: np.ndarray) -> np.ndarray:
        """A read-only view of ``array``, the same object until it is replaced."""
        views = self.__dict__.setdefault("_views", {})
        cached = views.get(key)
        if cached is None or cached[0] is not array:
            view = array.view()
            view.flags.writeable = False
            cached = views[key] = (array, view)
        return cached[1]

    @property
    def X(self) -> np.ndarray:
        """Read-only ``(n, n_var)`` decision matrix."""
        return self._read_only("X", self._X)

    @property
    def F(self) -> np.ndarray:
        """Read-only ``(n, n_obj)`` objective matrix.

        Raises
        ------
        ConfigurationError
            If any individual has not been evaluated yet.
        """
        if self._F is None:
            if len(self):
                raise ConfigurationError("population contains unevaluated individuals")
            return self._read_only("F", np.empty((0, 0)))
        if not self._evaluated.all():
            raise ConfigurationError("population contains unevaluated individuals")
        return self._read_only("F", self._F)

    @property
    def CV(self) -> np.ndarray:
        """Read-only ``(n,)`` aggregate constraint-violation vector."""
        return self._read_only("CV", self._CV)

    def _set_objectives(self, row: int, value: np.ndarray | None) -> None:
        if value is None:
            self._evaluated[row] = False
            return
        value = np.asarray(value, dtype=float).reshape(-1)
        if self._F is None or np.count_nonzero(self._evaluated) <= self._evaluated[row]:
            # No other row holds objectives: (re)size F to this vector.
            self._F = np.full((len(self), value.size), np.nan)
        self._F[row] = value
        self._evaluated[row] = True

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, problem: Problem, evaluator: "Evaluator") -> int:
        """Evaluate every not-yet-evaluated individual.

        The pending rows of ``X`` are evaluated as one matrix through
        ``evaluator`` (which may fan the matrix out over worker processes
        or answer rows from a cache) and counted in its ledger.

        Returns the number of problem evaluations performed, which the
        optimizers use to track their budget.
        """
        pending = np.flatnonzero(~self._evaluated)
        if not pending.size:
            return 0
        every = pending.size == len(self)
        batch = evaluator.evaluate_matrix(problem, self.X if every else self._X[pending])
        if self._F is None:
            self._F = np.full((len(self), batch.n_obj), np.nan)
        self._F[pending] = batch.F
        self._CV[pending] = batch.total_violations
        self._evaluated[pending] = True
        return int(pending.size)

    def copy(self) -> "Population":
        """Deep copy of the population."""
        return self.take(range(len(self)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Population(size=%d)" % len(self)
