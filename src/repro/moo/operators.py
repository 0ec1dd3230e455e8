"""Variation and selection operators for the evolutionary optimizers.

The operators implemented here are the classical real-coded machinery used by
NSGA-II and MOEA/D:

* simulated binary crossover (SBX),
* polynomial mutation,
* binary tournament selection (rank + crowding, constraint aware),
* differential-evolution variation (used by MOEA/D-DE style reproduction),
* Latin-hypercube initialization (uniform initialization is
  :meth:`Population.random <repro.moo.individual.Population.random>`).

All operators are pure functions of a ``numpy`` random generator, which makes
every optimizer in the library fully reproducible from a single seed.

The random stream is a contract.  SBX and polynomial mutation consume their
uniforms in the order of the classic per-gene loops (one ``rng.random()``
per decision; each docstring lists its draws), but take them in blocks:
``Generator.random(n)`` yields the same values as ``n`` scalar calls, and a
block never holds more than the genes still to come will consume, so the
generator ends in the same state.  The per-gene arithmetic runs on Python
floats, whose ``**`` is C ``pow``; array ``np.power`` can differ from it by
a few ulp, so it is not used.  Outputs are bitwise-identical to the scalar
loops kept in ``tests/oracles/operators.py`` (see "Variation operators" in
``docs/performance.md``).
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
]

# Inside a finite box every base the operators raise to a power is
# non-negative and no step divides by zero, so arithmetic on Python floats
# (``**`` is C ``pow``) is IEEE-identical to numpy scalars and much faster.
# A gene outside it gets numpy scalar bounds, which carry the same
# expressions into numpy arithmetic: nan/inf results and RuntimeWarnings,
# never a complex power or a ZeroDivisionError.
_INF = float("inf")
_NEG_INF = -_INF


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

    Draws: one uniform against ``probability``, then a gate per gene; a
    gene whose gate is ``<= 0.5`` and whose parents differ by at least
    ``1e-14`` draws two more, the spread and the child swap.
    """
    if eta <= 0:
        raise ConfigurationError("SBX distribution index eta must be positive")
    a = np.array(parent_a, dtype=float, copy=True)
    b = np.array(parent_b, dtype=float, copy=True)
    if rng.random() > probability:
        return a, b
    n = a.size
    xa, xb = a.tolist(), b.tolist()
    lows = np.asarray(lower, dtype=float).tolist()
    highs = np.asarray(upper, dtype=float).tolist()
    exponent = -(eta + 1.0)
    root = 1.0 / (eta + 1.0)
    # Each gene still to come draws at least its gate, so ``draws`` never
    # holds more than the call consumes: it is topped up by exactly the
    # shortfall whenever it runs dry.
    draws, pos = rng.random(n).tolist(), 0
    for i in range(n):
        if pos == len(draws):
            draws, pos = rng.random(n - i).tolist(), 0
        gate = draws[pos]
        pos += 1
        if gate > 0.5:
            continue
        x1, x2 = xa[i], xb[i]
        if abs(x1 - x2) < 1e-14:
            continue
        if len(draws) - pos < 2:
            draws = draws[pos:] + rng.random(n - i + 1 - (len(draws) - pos)).tolist()
            pos = 0
        rand, swap = draws[pos], draws[pos + 1]
        pos += 2
        x_low, x_high = lows[i], highs[i]
        x_min, x_max = (x1, x2) if x1 < x2 else (x2, x1)
        if not _NEG_INF < x_low <= x_min <= x_max <= x_high < _INF:
            x_low, x_high = np.float64(x_low), np.float64(x_high)

        gap, total = x_max - x_min, x_min + x_max
        beta = 1.0 + (2.0 * (x_min - x_low) / gap)
        alpha = 2.0 - beta**exponent
        if rand <= 1.0 / alpha:
            beta_q = (rand * alpha) ** root
        else:
            beta_q = (1.0 / (2.0 - rand * alpha)) ** root
        child1 = 0.5 * (total - beta_q * gap)

        beta = 1.0 + (2.0 * (x_high - x_max) / gap)
        alpha = 2.0 - beta**exponent
        if rand <= 1.0 / alpha:
            beta_q = (rand * alpha) ** root
        else:
            beta_q = (1.0 / (2.0 - rand * alpha)) ** root
        child2 = 0.5 * (total + beta_q * gap)

        child1 = min(max(child1, x_low), x_high)
        child2 = min(max(child2, x_low), x_high)
        if swap > 0.5:
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

    Draws: a gate per gene; a gene whose gate is ``<= probability`` and
    whose span is positive draws one more, the perturbation.
    """
    if eta <= 0:
        raise ConfigurationError("mutation distribution index eta must be positive")
    y = np.array(x, dtype=float, copy=True)
    n = y.size
    p = probability if probability is not None else 1.0 / n
    power = eta + 1.0
    mut_pow = 1.0 / (eta + 1.0)
    # ``gates`` holds the gates of genes i, i + 1, ... up to the next
    # mutated gene, whose perturbation is the following draw; as in
    # sbx_crossover, a refill draws exactly what the remaining genes need.
    i, gates = 0, rng.random(n)
    while i < n:
        if gates.size == 0:
            gates = rng.random(n - i)
        passed = np.flatnonzero(~(gates > p)).tolist()
        hit = next((k for k in passed if not upper[i + k] - lower[i + k] <= 0), None)
        if hit is None:
            i, gates = i + gates.size, gates[:0]
            continue
        g = i + hit
        rest = gates[hit + 1 :]
        if rest.size == 0:
            rest = rng.random(n - g)
        rand, gates, i = float(rest[0]), rest[1:], g + 1

        x_low, x_high, value = float(lower[g]), float(upper[g]), float(y[g])
        if not _NEG_INF < x_low <= value <= x_high < _INF:
            x_low, x_high = np.float64(x_low), np.float64(x_high)
        span = x_high - x_low
        delta1 = (value - x_low) / span
        delta2 = (x_high - value) / span
        if rand < 0.5:
            xy = 1.0 - delta1
            val = 2.0 * rand + (1.0 - 2.0 * rand) * xy**power
            delta_q = val**mut_pow - 1.0
        else:
            xy = 1.0 - delta2
            val = 2.0 * (1.0 - rand) + 2.0 * (rand - 0.5) * xy**power
            delta_q = 1.0 - val**mut_pow
        value = value + delta_q * span
        y[g] = min(max(value, x_low), x_high)
    return y


def binary_tournament(population: Population, rng: np.random.Generator) -> Individual:
    """Constraint-aware binary tournament selection.

    Selection order: lower rank wins, then larger crowding distance, then a
    random pick.  Individuals must have rank and crowding assigned (i.e. the
    population has been through
    :func:`repro.moo.nsga2.assign_ranks_and_crowding`).

    The (rank, crowding) decision is
    :func:`repro.moo.kernels.tournament_winner`; the random draws (one pair
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
    # the bounds the way plain clipping does; the clamp mirrors
    # ``min(max(child, low), high)`` comparison for comparison.
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    child = np.where(
        child < lower,
        lower + (lower - child),
        np.where(child > upper, upper - (child - upper), child),
    )
    child = np.where(lower > child, lower, child)
    child = np.where(upper < child, upper, child)
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
