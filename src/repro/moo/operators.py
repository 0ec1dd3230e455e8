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

SBX and polynomial mutation run in two passes over a :class:`Variation`, the
record of one generation's variation (MOEA/D, which is steady-state, keeps a
record of one pair).  The *draw* steps :func:`sbx_crossover` and
:func:`polynomial_mutation` walk the random stream per pair, exactly as the
classic per-gene loops consume it (one ``rng.random()`` per decision; each
docstring lists its draws), and record the uniforms of every gene they act
on.  How many uniforms a step takes depends only on the uniforms themselves,
on the parents' closeness and on the box spans, never on the arithmetic, so
the arithmetic can wait: :meth:`Variation.apply` then does all SBX, then all
mutation, on flat arrays and returns the children as one matrix.

The uniforms come in blocks: ``Generator.random(n)`` yields the same values
as ``n`` scalar calls, and a block never holds more than the genes still to
come will consume, so the generator ends in the same state.  The arithmetic
is elementwise IEEE on arrays, except for every power, which is C ``pow`` on
Python floats: array ``np.power`` can differ from it by a few ulp.  A gene
outside a finite box is computed alone on numpy scalars, as the loops did
(nan/inf results and RuntimeWarnings).  Outputs are bitwise-identical to the
scalar loops kept in ``tests/oracles/operators.py`` (see "Performance: one
variation pass per generation" in ``docs/performance.md``).
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from repro.exceptions import ConfigurationError
from repro.moo import kernels
from repro.moo.individual import Population
from repro.problems.base import Problem

__all__ = [
    "Variation",
    "sbx_crossover",
    "polynomial_mutation",
    "binary_tournament",
    "differential_variation",
    "latin_hypercube",
]

# Inside a finite box every base the operators raise to a power is
# non-negative and no step divides by zero, so arithmetic on arrays and on
# Python floats (``**`` is C ``pow``) is IEEE-identical to numpy scalars.
# A gene outside it gets numpy scalar bounds, which carry the same
# expressions into numpy arithmetic: nan/inf results and RuntimeWarnings,
# never a complex power or a ZeroDivisionError.
_INF = float("inf")
_NEG_INF = -_INF


class Variation:
    """The variation draws of one generation, applied in one pass.

    Each *slot* is one child: :meth:`add` (or :func:`sbx_crossover`, which
    adds a pair) starts it from a decision vector, the draw steps record
    the uniforms of the genes they act on, and :meth:`apply` computes every
    child at once.

    Parameters
    ----------
    lower, upper:
        Box bounds used to repair offspring.
    crossover_eta, mutation_eta:
        SBX and polynomial-mutation distribution indices; larger values
        create offspring closer to the parents.
    crossover_probability:
        Probability of applying SBX to a pair at all (otherwise the parents
        are copied unchanged).
    mutation_probability:
        Per-gene mutation probability; ``None`` means ``1 / n_var``, so that
        on average one variable is mutated per child, the standard NSGA-II
        setting.
    """

    def __init__(
        self,
        lower: np.ndarray,
        upper: np.ndarray,
        crossover_eta: float = 15.0,
        crossover_probability: float = 0.9,
        mutation_eta: float = 20.0,
        mutation_probability: float | None = None,
    ) -> None:
        if crossover_eta <= 0:
            raise ConfigurationError("SBX distribution index eta must be positive")
        if mutation_eta <= 0:
            raise ConfigurationError("mutation distribution index eta must be positive")
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        self.n_var = self.lower.size
        self.crossover_eta = crossover_eta
        self.crossover_probability = crossover_probability
        self.mutation_eta = mutation_eta
        self.mutation_probability = (
            mutation_probability if mutation_probability is not None else 1.0 / self.n_var
        )
        self._slots: list[np.ndarray] = []
        # Flat positions (slot * n_var + gene) of the genes each pass acts
        # on.  A crossed gene of the first child keeps the stream position
        # of its gate (the spread and the swap follow it) in the uniforms
        # the crossover drew, block by block; a mutated gene keeps its
        # perturbation.
        self._crossed: list[int] = []
        self._gates: list[int] = []
        self._stream: list[np.ndarray] = []
        self._streamed = 0
        self._mutated: list[int] = []
        self._mutation_draws: list[float] = []

    def add(self, x: np.ndarray) -> int:
        """Start a child from decision vector ``x`` (read when applied); returns its slot."""
        self._slots.append(np.asarray(x, dtype=float))
        return len(self._slots) - 1

    def apply(self) -> np.ndarray:
        """All children as one ``(slots, n_var)`` matrix: SBX, then mutation."""
        n = self.n_var
        children = np.array(self._slots, dtype=float).reshape(-1, n)
        flat = children.reshape(-1)
        if self._crossed:
            first = np.array(self._crossed, dtype=np.intp)
            second = first + n
            genes = first % n
            gates = np.array(self._gates, dtype=np.intp)
            stream = np.concatenate(self._stream)
            flat[first], flat[second] = _sbx(
                flat[first],
                flat[second],
                self.lower[genes],
                self.upper[genes],
                stream[gates + 1],
                stream[gates + 2],
                self.crossover_eta,
            )
        if self._mutated:
            at = np.array(self._mutated, dtype=np.intp)
            genes = at % n
            flat[at] = _mutate(
                flat[at],
                self.lower[genes],
                self.upper[genes],
                np.array(self._mutation_draws),
                self.mutation_eta,
            )
        return children


def sbx_crossover(
    variation: Variation, parent_a: np.ndarray, parent_b: np.ndarray, rng: np.random.Generator
) -> tuple[int, int]:
    """Draw step of the simulated binary crossover of Deb & Agrawal.

    Adds two child slots to ``variation``, started from the parents, and
    records the draws of every gene the crossover recombines; returns the
    slots.

    Draws: one uniform against the crossover probability, then a gate per
    gene; a gene whose gate is ``<= 0.5`` and whose parents differ by at
    least ``1e-14`` draws two more, the spread and the child swap.
    """
    slot = variation.add(parent_a)
    variation.add(parent_b)
    if rng.random() > variation.crossover_probability:
        return slot, slot + 1
    n = variation.n_var
    with np.errstate(all="ignore"):  # inf - inf: no warning, as on Python floats
        close = (np.abs(variation._slots[slot] - variation._slots[slot + 1]) < 1e-14).tolist()
    crossed, gates, stream = variation._crossed, variation._gates, variation._stream
    base, offset = slot * n, variation._streamed
    # Each gene still to come draws at least its gate, so a block never
    # holds more than the call consumes: a new one is drawn for exactly the
    # shortfall whenever the walk runs past the last.  ``offset`` is the
    # stream position of the current block.
    stream.append(rng.random(n))
    draws, pos, end = stream[-1].tolist(), 0, n
    for i in range(n):
        if pos == end:
            offset += end
            stream.append(rng.random(n - i))
            draws, pos, end = stream[-1].tolist(), 0, n - i
        if draws[pos] > 0.5 or close[i]:
            pos += 1
            continue
        crossed.append(base + i)
        gates.append(offset + pos)
        pos += 3
        if pos > end:  # the spread or the swap lies past the block
            offset += end
            stream.append(rng.random(n - i - 1 + pos - end))
            draws, pos, end = stream[-1].tolist(), pos - end, stream[-1].size
    variation._streamed = offset + end
    return slot, slot + 1


def polynomial_mutation(variation: Variation, slot: int, rng: np.random.Generator) -> None:
    """Draw step of the polynomial mutation of Deb, for the child in ``slot``.

    Draws: a gate per gene; a gene whose gate is ``<= probability`` and
    whose span is positive draws one more, the perturbation.
    """
    n, p = variation.n_var, variation.mutation_probability
    lower, upper, base = variation.lower, variation.upper, slot * n
    # ``gates`` holds the gates of genes i, i + 1, ... up to the next
    # mutated gene, whose perturbation is the following draw; as in
    # sbx_crossover, a refill draws exactly what the remaining genes need.
    i, gates = 0, rng.random(n)
    while i < n:
        if gates.size == 0:
            gates = rng.random(n - i)
        passed = (~(gates > p)).nonzero()[0].tolist()
        hit = next((k for k in passed if not upper[i + k] - lower[i + k] <= 0), None)
        if hit is None:
            i, gates = i + gates.size, gates[:0]
            continue
        g = i + hit
        rest = gates[hit + 1 :]
        if rest.size == 0:
            rest = rng.random(n - g)
        variation._mutated.append(base + g)
        variation._mutation_draws.append(float(rest[0]))
        gates, i = rest[1:], g + 1


def _powers(bases: np.ndarray, exponent: float) -> np.ndarray:
    """``bases ** exponent`` through C ``pow`` (:func:`math.pow`), one float at a time."""
    return np.fromiter(map(math.pow, bases.tolist(), repeat(exponent)), float, bases.size)


def _clamp(value, low, high):
    """``min(max(value, low), high)``, comparison for comparison."""
    value = np.where(low > value, low, value)
    return np.where(high < value, high, value)


def _in_box(x: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """``-inf < low <= x <= high < inf`` per gene."""
    return (_NEG_INF < low) & (low <= x) & (x <= high) & (high < _INF)


def _sbx(x1, x2, low, high, rand, swap, eta):
    """SBX children of the recorded genes (the arithmetic pass)."""
    exponent = -(eta + 1.0)
    root = 1.0 / (eta + 1.0)
    batched = _in_box(x1, low, high) & _in_box(x2, low, high)
    child1, child2 = np.empty_like(x1), np.empty_like(x2)
    for k in np.flatnonzero(~batched).tolist():
        gene = float(x1[k]), float(x2[k]), float(low[k]), float(high[k]), float(rand[k])
        child1[k], child2[k] = _sbx_gene(*gene, exponent, root)
    at = np.flatnonzero(batched)
    if at.size:
        a, b, low, high, rand = x1[at], x2[at], low[at], high[at], rand[at]
        x_min, x_max = np.where(a < b, a, b), np.where(a < b, b, a)
        with np.errstate(all="ignore"):
            gap, total = x_max - x_min, x_min + x_max
            spreads = []
            for beta in (1.0 + (2.0 * (x_min - low) / gap), 1.0 + (2.0 * (high - x_max) / gap)):
                alpha = 2.0 - _powers(beta, exponent)
                scaled = rand * alpha
                spreads.append(
                    _powers(np.where(rand <= 1.0 / alpha, scaled, 1.0 / (2.0 - scaled)), root)
                )
            child1[at] = _clamp(0.5 * (total - spreads[0] * gap), low, high)
            child2[at] = _clamp(0.5 * (total + spreads[1] * gap), low, high)
    swapped = swap > 0.5
    return np.where(swapped, child2, child1), np.where(swapped, child1, child2)


def _sbx_gene(x1, x2, x_low, x_high, rand, exponent, root):
    """One gene's SBX children on Python floats (numpy scalars outside the box)."""
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
    return min(max(child1, x_low), x_high), min(max(child2, x_low), x_high)


def _mutate(value, low, high, rand, eta):
    """Mutated values of the recorded genes (the arithmetic pass)."""
    power = eta + 1.0
    mut_pow = 1.0 / (eta + 1.0)
    batched = _in_box(value, low, high)
    result = np.empty_like(value)
    for k in np.flatnonzero(~batched).tolist():
        result[k] = _mutate_gene(
            float(value[k]), float(low[k]), float(high[k]), float(rand[k]), power, mut_pow
        )
    at = np.flatnonzero(batched)
    if at.size:
        value, low, high, rand = value[at], low[at], high[at], rand[at]
        with np.errstate(all="ignore"):
            span = high - low
            below = rand < 0.5
            xy = np.where(below, 1.0 - (value - low) / span, 1.0 - (high - value) / span)
            xy = _powers(xy, power)
            val = np.where(
                below,
                2.0 * rand + (1.0 - 2.0 * rand) * xy,
                2.0 * (1.0 - rand) + 2.0 * (rand - 0.5) * xy,
            )
            val = _powers(val, mut_pow)
            delta_q = np.where(below, val - 1.0, 1.0 - val)
            result[at] = _clamp(value + delta_q * span, low, high)
    return result


def _mutate_gene(value, x_low, x_high, rand, power, mut_pow):
    """One gene's mutated value on Python floats (numpy scalars outside the box)."""
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
    return min(max(value, x_low), x_high)


def binary_tournament(population: Population, rng: np.random.Generator) -> int:
    """Constraint-aware binary tournament selection; returns the winner's row.

    Selection order: lower rank wins, then larger crowding distance, then a
    random pick.  The population must have rank and crowding assigned (i.e.
    it has been through :func:`repro.moo.nsga2.assign_ranks_and_crowding`).

    The (rank, crowding) decision is
    :func:`repro.moo.kernels.tournament_winner`; the random draws (two
    indices, plus one uniform draw only on a full tie) are made here so the
    random stream matches the classic sequential tournament exactly.  Two
    scalar ``integers`` calls yield the same indices and generator state as
    one call of size 2, at half the call overhead.
    """
    n = len(population)
    if n == 0:
        raise ConfigurationError("cannot select from an empty population")
    i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
    rank, crowding = population.rank, population.crowding
    if rank[i] < 0 or rank[j] < 0:
        raise ConfigurationError("tournament requires ranked individuals")
    winner = kernels.tournament_winner(rank[i], crowding[i], rank[j], crowding[j])
    if winner is None:
        return i if rng.random() < 0.5 else j
    return i if winner == 0 else j


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
    return Population.from_vectors([problem.denormalize(samples[i]) for i in range(size)])
