"""Variation and selection operators for the evolutionary optimizers.

The operators implemented here are the classical real-coded machinery used by
NSGA-II and MOEA/D:

* simulated binary crossover (SBX),
* polynomial mutation,
* binary tournament selection (rank + crowding, constraint aware),
* differential-evolution variation (used by MOEA/D-DE style reproduction),
* uniform and Latin-hypercube initialization.

All operators are pure functions of a ``numpy`` random generator, which makes
every optimizer in the library fully reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.moo import kernels
from repro.moo.individual import Individual, Population
from repro.problems.base import Problem

__all__ = [
    "sbx_crossover",
    "polynomial_mutation",
    "binary_tournament",
    "differential_variation",
    "latin_hypercube",
    "uniform_initialization",
]


def sbx_crossover(
    parent_a: np.ndarray,
    parent_b: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    rng: np.random.Generator,
    eta: float = 15.0,
    probability: float = 0.9,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover of Deb & Agrawal.

    Parameters
    ----------
    parent_a, parent_b:
        Parent decision vectors.
    lower, upper:
        Box bounds used to repair offspring.
    eta:
        Distribution index; larger values create offspring closer to the
        parents.
    probability:
        Probability of applying the crossover at all (otherwise the parents
        are copied unchanged).
    """
    if eta <= 0:
        raise ConfigurationError("SBX distribution index eta must be positive")
    a = np.array(parent_a, dtype=float, copy=True)
    b = np.array(parent_b, dtype=float, copy=True)
    if rng.random() > probability:
        return a, b
    for i in range(a.size):
        if rng.random() > 0.5:
            continue
        x1, x2 = a[i], b[i]
        if abs(x1 - x2) < 1e-14:
            continue
        x_low, x_high = lower[i], upper[i]
        x_min, x_max = (x1, x2) if x1 < x2 else (x2, x1)
        rand = rng.random()

        beta = 1.0 + (2.0 * (x_min - x_low) / (x_max - x_min))
        alpha = 2.0 - beta ** (-(eta + 1.0))
        if rand <= 1.0 / alpha:
            beta_q = (rand * alpha) ** (1.0 / (eta + 1.0))
        else:
            beta_q = (1.0 / (2.0 - rand * alpha)) ** (1.0 / (eta + 1.0))
        child1 = 0.5 * ((x_min + x_max) - beta_q * (x_max - x_min))

        beta = 1.0 + (2.0 * (x_high - x_max) / (x_max - x_min))
        alpha = 2.0 - beta ** (-(eta + 1.0))
        if rand <= 1.0 / alpha:
            beta_q = (rand * alpha) ** (1.0 / (eta + 1.0))
        else:
            beta_q = (1.0 / (2.0 - rand * alpha)) ** (1.0 / (eta + 1.0))
        child2 = 0.5 * ((x_min + x_max) + beta_q * (x_max - x_min))

        child1 = min(max(child1, x_low), x_high)
        child2 = min(max(child2, x_low), x_high)
        if rng.random() > 0.5:
            child1, child2 = child2, child1
        a[i], b[i] = child1, child2
    return a, b


def polynomial_mutation(
    x: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    rng: np.random.Generator,
    eta: float = 20.0,
    probability: float | None = None,
) -> np.ndarray:
    """Polynomial mutation of Deb.

    ``probability`` defaults to ``1 / n_var`` so that on average one variable
    is mutated per call, the standard NSGA-II setting.
    """
    if eta <= 0:
        raise ConfigurationError("mutation distribution index eta must be positive")
    y = np.array(x, dtype=float, copy=True)
    n = y.size
    p = probability if probability is not None else 1.0 / n
    for i in range(n):
        if rng.random() > p:
            continue
        x_low, x_high = lower[i], upper[i]
        span = x_high - x_low
        if span <= 0:
            continue
        value = y[i]
        delta1 = (value - x_low) / span
        delta2 = (x_high - value) / span
        rand = rng.random()
        mut_pow = 1.0 / (eta + 1.0)
        if rand < 0.5:
            xy = 1.0 - delta1
            val = 2.0 * rand + (1.0 - 2.0 * rand) * xy ** (eta + 1.0)
            delta_q = val ** mut_pow - 1.0
        else:
            xy = 1.0 - delta2
            val = 2.0 * (1.0 - rand) + 2.0 * (rand - 0.5) * xy ** (eta + 1.0)
            delta_q = 1.0 - val ** mut_pow
        value = value + delta_q * span
        y[i] = min(max(value, x_low), x_high)
    return y


def binary_tournament(population: Population, rng: np.random.Generator) -> Individual:
    """Constraint-aware binary tournament selection.

    Selection order: lower rank wins, then larger crowding distance, then a
    random pick.  Individuals must have rank and crowding assigned (i.e. the
    population has been through :func:`assign_ranks_and_crowding`).

    The (rank, crowding) decision is
    :func:`repro.moo.kernels.tournament_winner` — the scalar fast path of
    the batched ``tournament_winners`` kernel; the random draws (one pair
    of indices, plus one uniform draw only on a full tie) are made here so
    the random stream matches the classic sequential tournament exactly.
    """
    if len(population) == 0:
        raise ConfigurationError("cannot select from an empty population")
    i, j = rng.integers(0, len(population), size=2)
    a, b = population[int(i)], population[int(j)]
    if a.rank is None or b.rank is None:
        raise ConfigurationError("tournament requires ranked individuals")
    winner = kernels.tournament_winner(a.rank, a.crowding, b.rank, b.crowding)
    if winner is None:
        return a if rng.random() < 0.5 else b
    return a if winner == 0 else b


def differential_variation(
    base: np.ndarray,
    donor_a: np.ndarray,
    donor_b: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    rng: np.random.Generator,
    scale: float = 0.5,
    crossover_rate: float = 1.0,
) -> np.ndarray:
    """DE/rand/1 style variation used in decomposition-based reproduction.

    The trial vector is ``base + scale * (donor_a - donor_b)`` with binomial
    crossover against ``base`` and reflection repair at the bounds.
    """
    base = np.asarray(base, dtype=float)
    trial = base + scale * (np.asarray(donor_a, float) - np.asarray(donor_b, float))
    mask = rng.random(base.size) < crossover_rate
    mask[rng.integers(0, base.size)] = True
    child = np.where(mask, trial, base)
    # Reflection repair keeps the child inside the box without clustering on
    # the bounds the way plain clipping does.
    for i in range(child.size):
        low, high = lower[i], upper[i]
        if child[i] < low:
            child[i] = low + (low - child[i])
        elif child[i] > high:
            child[i] = high - (child[i] - high)
        child[i] = min(max(child[i], low), high)
    return child


def latin_hypercube(
    problem: Problem, size: int, rng: np.random.Generator
) -> Population:
    """Latin-hypercube initialization of ``size`` individuals."""
    if size <= 0:
        raise ConfigurationError("population size must be positive")
    samples = np.empty((size, problem.n_var))
    for j in range(problem.n_var):
        perm = rng.permutation(size)
        samples[:, j] = (perm + rng.random(size)) / size
    vectors = [problem.denormalize(samples[i]) for i in range(size)]
    return Population.from_vectors(vectors)


def uniform_initialization(
    problem: Problem, size: int, rng: np.random.Generator
) -> Population:
    """Uniform random initialization (thin wrapper over ``Population.random``)."""
    return Population.random(problem, size, rng)
