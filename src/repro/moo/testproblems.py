"""Synthetic multi-objective benchmark problems.

These classical problems (Schaffer, Fonseca-Fleming, ZDT family, DTLZ2,
a constrained problem, and Kursawe) have known Pareto fronts and are used to
validate PMO2, NSGA-II and MOEA/D before they are pointed at the metabolic
case studies.  Each problem exposes :meth:`true_front`, an analytical sampling
of its Pareto front, so that the test-suite can measure convergence with the
distance indicators in :mod:`repro.moo.metrics`.

Every problem here implements the batch-first contract natively: a vectorized
``_evaluate_matrix`` that maps the whole ``(n, n_var)`` decision matrix to a
:class:`~repro.problems.batch.BatchEvaluation` in a handful of numpy column
operations, bitwise identical to evaluating the rows one by one (the
test-suite asserts the equivalence for all of them).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.moo import kernels
from repro.problems.base import Problem
from repro.problems.batch import BatchEvaluation

__all__ = [
    "Schaffer",
    "FonsecaFleming",
    "ZDT1",
    "ZDT2",
    "ZDT3",
    "ZDT6",
    "DTLZ2",
    "ConstrainedBNH",
    "Kursawe",
    "available_test_problems",
]


class Schaffer(Problem):
    """Schaffer's single-variable problem: ``f1 = x^2``, ``f2 = (x - 2)^2``."""

    def __init__(self, bound: float = 10.0) -> None:
        super().__init__(
            n_var=1,
            n_obj=2,
            lower_bounds=[-bound],
            upper_bounds=[bound],
            objective_names=["f1", "f2"],
        )

    def _evaluate_matrix(self, X: np.ndarray) -> BatchEvaluation:
        values = X[:, 0]
        return BatchEvaluation(
            F=np.column_stack([values ** 2, (values - 2.0) ** 2])
        )

    def true_front(self, n_points: int = 100) -> np.ndarray:
        """Pareto front: images of ``x`` in ``[0, 2]``."""
        xs = np.linspace(0.0, 2.0, n_points)
        return np.column_stack([xs ** 2, (xs - 2.0) ** 2])


class FonsecaFleming(Problem):
    """Fonseca & Fleming's problem with a concave Pareto front."""

    def __init__(self, n_var: int = 3) -> None:
        super().__init__(
            n_var=n_var,
            n_obj=2,
            lower_bounds=[-4.0] * n_var,
            upper_bounds=[4.0] * n_var,
            objective_names=["f1", "f2"],
        )

    def _evaluate_matrix(self, X: np.ndarray) -> BatchEvaluation:
        shift = 1.0 / np.sqrt(self.n_var)
        f1 = 1.0 - np.exp(-np.sum((X - shift) ** 2, axis=1))
        f2 = 1.0 - np.exp(-np.sum((X + shift) ** 2, axis=1))
        return BatchEvaluation(F=np.column_stack([f1, f2]))

    def true_front(self, n_points: int = 100) -> np.ndarray:
        """Front obtained by sweeping the common coordinate in [-1/sqrt(n), 1/sqrt(n)]."""
        shift = 1.0 / np.sqrt(self.n_var)
        ts = np.linspace(-shift, shift, n_points)
        f1 = 1.0 - np.exp(-self.n_var * (ts - shift) ** 2)
        f2 = 1.0 - np.exp(-self.n_var * (ts + shift) ** 2)
        return np.column_stack([f1, f2])


class _ZDTBase(Problem):
    """Shared scaffolding of the ZDT family."""

    def __init__(self, n_var: int) -> None:
        if n_var < 2:
            raise ConfigurationError("ZDT problems need at least two variables")
        super().__init__(
            n_var=n_var,
            n_obj=2,
            lower_bounds=[0.0] * n_var,
            upper_bounds=[1.0] * n_var,
            objective_names=["f1", "f2"],
        )


class ZDT1(_ZDTBase):
    """ZDT1: convex Pareto front ``f2 = 1 - sqrt(f1)``."""

    def __init__(self, n_var: int = 30) -> None:
        super().__init__(n_var)

    def _evaluate_matrix(self, X: np.ndarray) -> BatchEvaluation:
        f1 = X[:, 0]
        g = 1.0 + 9.0 * np.mean(X[:, 1:], axis=1)
        f2 = g * (1.0 - np.sqrt(f1 / g))
        return BatchEvaluation(F=np.column_stack([f1, f2]))

    def true_front(self, n_points: int = 100) -> np.ndarray:
        f1 = np.linspace(0.0, 1.0, n_points)
        return np.column_stack([f1, 1.0 - np.sqrt(f1)])


class ZDT2(_ZDTBase):
    """ZDT2: non-convex Pareto front ``f2 = 1 - f1^2``."""

    def __init__(self, n_var: int = 30) -> None:
        super().__init__(n_var)

    def _evaluate_matrix(self, X: np.ndarray) -> BatchEvaluation:
        f1 = X[:, 0]
        g = 1.0 + 9.0 * np.mean(X[:, 1:], axis=1)
        f2 = g * (1.0 - (f1 / g) ** 2)
        return BatchEvaluation(F=np.column_stack([f1, f2]))

    def true_front(self, n_points: int = 100) -> np.ndarray:
        f1 = np.linspace(0.0, 1.0, n_points)
        return np.column_stack([f1, 1.0 - f1 ** 2])


class ZDT3(_ZDTBase):
    """ZDT3: disconnected Pareto front (tests discontinuity handling)."""

    def __init__(self, n_var: int = 30) -> None:
        super().__init__(n_var)

    def _evaluate_matrix(self, X: np.ndarray) -> BatchEvaluation:
        f1 = X[:, 0]
        g = 1.0 + 9.0 * np.mean(X[:, 1:], axis=1)
        ratio = f1 / g
        f2 = g * (1.0 - np.sqrt(ratio) - ratio * np.sin(10.0 * np.pi * f1))
        return BatchEvaluation(F=np.column_stack([f1, f2]))

    def true_front(self, n_points: int = 200) -> np.ndarray:
        f1 = np.linspace(0.0, 0.852, n_points)
        f2 = 1.0 - np.sqrt(f1) - f1 * np.sin(10.0 * np.pi * f1)
        points = np.column_stack([f1, f2])
        return points[kernels.non_dominated_mask(points)]


class ZDT6(_ZDTBase):
    """ZDT6: non-uniformly distributed, non-convex front."""

    def __init__(self, n_var: int = 10) -> None:
        super().__init__(n_var)

    def _evaluate_matrix(self, X: np.ndarray) -> BatchEvaluation:
        f1 = 1.0 - np.exp(-4.0 * X[:, 0]) * np.sin(6.0 * np.pi * X[:, 0]) ** 6
        g = 1.0 + 9.0 * (np.sum(X[:, 1:], axis=1) / (self.n_var - 1)) ** 0.25
        f2 = g * (1.0 - (f1 / g) ** 2)
        return BatchEvaluation(F=np.column_stack([f1, f2]))

    def true_front(self, n_points: int = 100) -> np.ndarray:
        f1 = np.linspace(0.2807753191, 1.0, n_points)
        return np.column_stack([f1, 1.0 - f1 ** 2])


class DTLZ2(Problem):
    """DTLZ2 with a configurable number of objectives (spherical front)."""

    def __init__(self, n_obj: int = 3, n_var: int | None = None) -> None:
        if n_obj < 2:
            raise ConfigurationError("DTLZ2 needs at least two objectives")
        k = 10
        n_var = n_var if n_var is not None else n_obj + k - 1
        super().__init__(
            n_var=n_var,
            n_obj=n_obj,
            lower_bounds=[0.0] * n_var,
            upper_bounds=[1.0] * n_var,
        )

    def _evaluate_matrix(self, X: np.ndarray) -> BatchEvaluation:
        # The objective count is small (2-5); looping over objectives while
        # vectorizing over rows keeps the multiplication order identical to
        # the historical per-point loop (floating multiplication does not
        # associate, and the fronts are bitwise-pinned).
        m = self.n_obj
        g = np.sum((X[:, m - 1 :] - 0.5) ** 2, axis=1)
        F = np.empty((X.shape[0], m))
        for i in range(m):
            value = 1.0 + g
            for j in range(m - 1 - i):
                value = value * np.cos(X[:, j] * np.pi / 2.0)
            if i > 0:
                value = value * np.sin(X[:, m - 1 - i] * np.pi / 2.0)
            F[:, i] = value
        return BatchEvaluation(F=F)

    def true_front(self, n_points: int = 200) -> np.ndarray:
        """Uniform sampling of the unit sphere octant (exact for g = 0)."""
        rng = np.random.default_rng(0)
        raw = np.abs(rng.normal(size=(n_points, self.n_obj)))
        return raw / np.linalg.norm(raw, axis=1, keepdims=True)


class ConstrainedBNH(Problem):
    """Binh & Korn's constrained bi-objective problem (two inequality constraints)."""

    def __init__(self) -> None:
        super().__init__(
            n_var=2,
            n_obj=2,
            lower_bounds=[0.0, 0.0],
            upper_bounds=[5.0, 3.0],
            objective_names=["f1", "f2"],
            n_con=2,
        )

    def _evaluate_matrix(self, X: np.ndarray) -> BatchEvaluation:
        x1, x2 = X[:, 0], X[:, 1]
        f1 = 4.0 * x1 ** 2 + 4.0 * x2 ** 2
        f2 = (x1 - 5.0) ** 2 + (x2 - 5.0) ** 2
        # Constraints written as violations (positive = violated).
        c1 = (x1 - 5.0) ** 2 + x2 ** 2 - 25.0
        c2 = 7.7 - ((x1 - 8.0) ** 2 + (x2 + 3.0) ** 2)
        return BatchEvaluation(
            F=np.column_stack([f1, f2]), G=np.column_stack([c1, c2])
        )


class Kursawe(Problem):
    """Kursawe's problem: disconnected, non-convex front in three variables."""

    def __init__(self, n_var: int = 3) -> None:
        super().__init__(
            n_var=n_var,
            n_obj=2,
            lower_bounds=[-5.0] * n_var,
            upper_bounds=[5.0] * n_var,
            objective_names=["f1", "f2"],
        )

    def _evaluate_matrix(self, X: np.ndarray) -> BatchEvaluation:
        f1 = np.sum(
            -10.0 * np.exp(-0.2 * np.sqrt(X[:, :-1] ** 2 + X[:, 1:] ** 2)), axis=1
        )
        f2 = np.sum(np.abs(X) ** 0.8 + 5.0 * np.sin(X ** 3), axis=1)
        return BatchEvaluation(F=np.column_stack([f1, f2]))


def available_test_problems() -> dict[str, type[Problem]]:
    """Registry of the synthetic problems, keyed by their conventional name."""
    return {
        "schaffer": Schaffer,
        "fonseca": FonsecaFleming,
        "zdt1": ZDT1,
        "zdt2": ZDT2,
        "zdt3": ZDT3,
        "zdt6": ZDT6,
        "dtlz2": DTLZ2,
        "bnh": ConstrainedBNH,
        "kursawe": Kursawe,
    }
