"""Scalar variation operators: the specification of ``repro.moo.operators``.

These are SBX, polynomial mutation and
:func:`~repro.moo.operators.differential_variation` as per-gene loops,
copied verbatim from before their block-draw, draw/apply, array and raw-word
rewrites, and :func:`offspring`, NSGA-II's per-pair generation loop over
them (two tournaments, the crossover, two mutations per pair), which
:func:`make_offspring` runs on an engine's state.  One ``rng.random()`` call
per decision, in gene order, and ``rng.integers`` per tournament pick define
the random stream the optimized operators must reproduce exactly;
``tests/moo/test_operator_equivalence.py`` holds them to it.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "sbx_crossover",
    "polynomial_mutation",
    "differential_variation",
    "binary_tournament",
    "offspring",
    "make_offspring",
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


def binary_tournament(rank, crowding, rng):
    """Index of the winner of one constraint-aware binary tournament."""
    i, j = (int(k) for k in rng.integers(0, len(rank), size=2))
    if rank[i] != rank[j]:
        return i if rank[i] < rank[j] else j
    if crowding[i] != crowding[j]:
        return i if crowding[i] > crowding[j] else j
    return i if rng.random() < 0.5 else j


def offspring(X, rank, crowding, lower, upper, rng, config):
    """One NSGA-II generation of children, pair by pair, as an ``(N, n_var)`` matrix.

    ``config`` carries ``population_size``, ``crossover_eta``,
    ``crossover_probability``, ``mutation_eta`` and
    ``mutation_probability``, as :class:`repro.moo.nsga2.NSGA2Config` does.
    """
    children = []
    while len(children) < config.population_size:
        parent_a = X[binary_tournament(rank, crowding, rng)]
        parent_b = X[binary_tournament(rank, crowding, rng)]
        child_a, child_b = sbx_crossover(
            parent_a,
            parent_b,
            lower,
            upper,
            rng,
            eta=config.crossover_eta,
            probability=config.crossover_probability,
        )
        for child in (child_a, child_b):
            children.append(
                polynomial_mutation(
                    child,
                    lower,
                    upper,
                    rng,
                    eta=config.mutation_eta,
                    probability=config.mutation_probability,
                )
            )
    return np.array(children[: config.population_size])


def make_offspring(engine):
    """``NSGA2._make_offspring`` with per-call draws on ``engine.rng``.

    The engine's population (with its rank and crowding), box and
    configuration go through :func:`offspring`; returns the children matrix.
    """
    population = engine.population
    return offspring(
        population.X,
        population.rank,
        population.crowding,
        engine.problem.lower_bounds,
        engine.problem.upper_bounds,
        engine.rng,
        engine.config,
    )
