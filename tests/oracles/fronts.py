"""Analytical Pareto fronts of the synthetic test problems.

Each sampler returns points on the known Pareto front of one problem in
:mod:`repro.moo.testproblems`, so the engine tests can measure convergence
with the inverted generational distance.  The module lives outside the
installed package; it exists for verification only.
"""

from __future__ import annotations

import numpy as np

from repro.moo import kernels
from repro.moo.testproblems import (
    DTLZ2,
    ZDT1,
    ZDT2,
    ZDT3,
    ZDT6,
    FonsecaFleming,
    Schaffer,
)
from repro.problems.base import Problem

__all__ = ["true_front"]


def _schaffer(problem: Schaffer, n_points: int = 100) -> np.ndarray:
    """Images of ``x`` in ``[0, 2]``."""
    xs = np.linspace(0.0, 2.0, n_points)
    return np.column_stack([xs ** 2, (xs - 2.0) ** 2])


def _fonseca(problem: FonsecaFleming, n_points: int = 100) -> np.ndarray:
    """The common coordinate swept over ``[-1/sqrt(n), 1/sqrt(n)]``."""
    shift = 1.0 / np.sqrt(problem.n_var)
    ts = np.linspace(-shift, shift, n_points)
    f1 = 1.0 - np.exp(-problem.n_var * (ts - shift) ** 2)
    f2 = 1.0 - np.exp(-problem.n_var * (ts + shift) ** 2)
    return np.column_stack([f1, f2])


def _zdt1(problem: ZDT1, n_points: int = 100) -> np.ndarray:
    f1 = np.linspace(0.0, 1.0, n_points)
    return np.column_stack([f1, 1.0 - np.sqrt(f1)])


def _zdt2(problem: ZDT2, n_points: int = 100) -> np.ndarray:
    f1 = np.linspace(0.0, 1.0, n_points)
    return np.column_stack([f1, 1.0 - f1 ** 2])


def _zdt3(problem: ZDT3, n_points: int = 200) -> np.ndarray:
    f1 = np.linspace(0.0, 0.852, n_points)
    f2 = 1.0 - np.sqrt(f1) - f1 * np.sin(10.0 * np.pi * f1)
    points = np.column_stack([f1, f2])
    return points[kernels.non_dominated_mask(points)]


def _zdt6(problem: ZDT6, n_points: int = 100) -> np.ndarray:
    f1 = np.linspace(0.2807753191, 1.0, n_points)
    return np.column_stack([f1, 1.0 - f1 ** 2])


def _dtlz2(problem: DTLZ2, n_points: int = 200) -> np.ndarray:
    """Uniform sampling of the unit sphere octant (exact for g = 0)."""
    rng = np.random.default_rng(0)
    raw = np.abs(rng.normal(size=(n_points, problem.n_obj)))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


_SAMPLERS = {
    Schaffer: _schaffer,
    FonsecaFleming: _fonseca,
    ZDT1: _zdt1,
    ZDT2: _zdt2,
    ZDT3: _zdt3,
    ZDT6: _zdt6,
    DTLZ2: _dtlz2,
}


def true_front(problem: Problem, n_points: int | None = None) -> np.ndarray:
    """Points on ``problem``'s Pareto front (the sampler's default count if ``None``)."""
    sample = _SAMPLERS[type(problem)]
    return sample(problem) if n_points is None else sample(problem, n_points)
