"""Variation and selection operators for the evolutionary optimizers.

The operators implemented here are the classical real-coded machinery used by
NSGA-II and MOEA/D:

* simulated binary crossover (SBX),
* polynomial mutation,
* binary tournament selection (rank + crowding, constraint aware),
* differential-evolution variation (used by MOEA/D-DE style reproduction),
* Latin-hypercube initialization (uniform initialization is
  :meth:`Population.random <repro.moo.individual.Population.random>`).

Every optimizer seeds ``np.random.default_rng``, a PCG64 generator, so a
run is fully reproducible from a single seed.

SBX and polynomial mutation run in two passes over a :class:`Variation`, the
record of one generation's variation (MOEA/D, which is steady-state, keeps a
record of one pair).  The *draw* steps :func:`binary_tournament`,
:func:`sbx_crossover` and :func:`polynomial_mutation` read the random stream
exactly as the classic per-gene loops consume it (one ``random()`` per
decision, ``integers(0, n)`` per tournament pick; each docstring lists its
draws) and record the stream position of every gene they act on.  How many
draws a step takes depends only on the draws themselves, on the parents'
closeness and on the box spans, never on the arithmetic, so the arithmetic
can wait: :meth:`Variation.apply` then does all SBX, then all mutation, on
flat arrays and returns the children as one matrix.

The steps read the stream from :class:`Draws`, a cursor over raw PCG64
words, instead of calling the generator.  ``Generator.random()`` turns one
fresh 64-bit word ``w`` into ``(w >> 11) * 2**-53``; ``integers(0, n)``
runs Lemire's method on 32-bit halves, the low half of a fresh word first
and its high half on the next call.  So a cursor takes its words in chunks
with ``bit_generator.random_raw``, converts each chunk to doubles once and
serves both kinds of draw from it.  When it closes it hands the state back:
the saved state, advanced by the words it consumed, with the pending high
half (numpy keeps the last one even once consumed).  The generator ends
exactly where the per-call code leaves it.

The box must be finite (the engines refuse any other), so no base the
arithmetic raises to a power is negative and no step divides by zero.  It
is elementwise IEEE on arrays, except for every power, which is C ``pow``
on Python floats: array ``np.power`` can differ from it by a few ulp.
Outputs are bitwise-identical to the scalar loops kept in
``tests/oracles/operators.py`` (see "Performance: one raw draw block per
generation" in ``docs/performance.md``).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import repeat

import numpy as np

from repro.exceptions import ConfigurationError
from repro.moo import kernels
from repro.moo.individual import Population
from repro.problems.base import Problem

__all__ = [
    "Draws",
    "Variation",
    "sbx_crossover",
    "polynomial_mutation",
    "binary_tournament",
    "differential_variation",
    "latin_hypercube",
    "pcg64_generator",
]

#: Words a cursor draws at a time, unless a step needs more.
CHUNK_WORDS = 4096
#: Up to this many consumed words, closing draws them again rather than
#: calling ``advance`` (cheaper for the one-child cursors of MOEA/D).
_REPLAY_WORDS = 1024
_LOW_HALF = 0xFFFFFFFF
_EMPTY_WORDS = np.empty(0, dtype=np.uint64)


def pcg64_generator(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``, refused unless its bit generator is PCG64.

    ``default_rng`` passes a caller's ``Generator`` through unchanged, so an
    engine given one backed by another bit generator is refused here, at
    construction, rather than drawing a stream :class:`Draws` cannot read.
    """
    rng = np.random.default_rng(seed)
    if type(rng.bit_generator) is not np.random.PCG64:
        raise ConfigurationError(
            "the optimizers draw from a PCG64 generator, got %s"
            % type(rng.bit_generator).__name__
        )
    return rng


def _largest_word(p: float) -> int:
    """The largest word ``w`` whose double ``(w >> 11) * 2**-53`` is ``<= p``."""
    return min(((math.floor(p * 2.0**53) + 1) << 11) - 1, 2**64 - 1)


_HALF_WORD = _largest_word(0.5)


def _doubles(words: np.ndarray) -> np.ndarray:
    """The doubles ``Generator.random()`` makes of raw PCG64 words."""
    return (words >> 11) * 2.0**-53


class Draws:
    """A cursor over the raw words of a PCG64 generator.

    :meth:`random` and :meth:`integers` return what ``rng.random()`` and
    ``rng.integers(0, n)`` would, in any mix; :meth:`close` leaves ``rng``
    in the state those calls would have left.  The generator must not be
    used directly while the cursor is open.  The draw steps also walk the
    current chunk themselves: :meth:`reserve` makes room for a step's worst
    case, ``pos`` is the next unread word of the chunk and ``start + pos``
    its stream position, an index into :meth:`words`.

    Parameters
    ----------
    rng:
        A ``Generator`` backed by :class:`numpy.random.PCG64`.
    chunk:
        Words to draw at a time (a step that needs more draws more);
        ``None`` means :data:`CHUNK_WORDS`.
    """

    def __init__(self, rng: np.random.Generator, chunk: int | None = None) -> None:
        generator = rng.bit_generator
        state = generator.state
        if state["bit_generator"] != "PCG64":
            raise ConfigurationError(
                "draw cursors read PCG64 words, got %s" % state["bit_generator"]
            )
        self._generator, self._state = generator, state
        self._chunk = chunk or CHUNK_WORDS
        # numpy's 32-bit buffer: whether a high half is pending, and the
        # last high half drawn (kept once consumed, as numpy keeps it).
        self._pending, self._half = bool(state["has_uint32"]), state["uinteger"]
        self._words = _EMPTY_WORDS
        self._spent: list[np.ndarray] = []
        self._gate_bytes: bytes | None = None
        self._passes: tuple[float, list[int]] | None = None
        self.start = self.pos = 0

    def __enter__(self) -> "Draws":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def reserve(self, count: int) -> None:
        """Make sure the current chunk holds ``count`` unread words."""
        if self.pos + count > self._words.size:
            self._refill(count)

    def _refill(self, count: int) -> None:
        """Start a chunk of at least ``count`` words with the unread ones."""
        pos, words = self.pos, self._words
        fresh = self._generator.random_raw(max(self._chunk, count) - (words.size - pos))
        if pos:
            self._spent.append(words[:pos])
        self._words = np.concatenate((words[pos:], fresh)) if pos < words.size else fresh
        self.start += pos
        self.pos = 0
        self._gate_bytes = self._passes = None

    def random(self) -> float:
        """The next ``rng.random()``."""
        if self.pos == self._words.size:
            self._refill(1)
        self.pos += 1
        return (self._words.item(self.pos - 1) >> 11) * 2.0**-53

    def _uint32(self) -> int:
        if self._pending:
            self._pending = False
            return self._half
        if self.pos == self._words.size:
            self._refill(1)
        word = self._words.item(self.pos)
        self.pos += 1
        self._pending, self._half = True, word >> 32
        return word & _LOW_HALF

    def integers(self, n: int) -> int:
        """The next ``rng.integers(0, n)``, for ``1 <= n <= 2**32``: Lemire's method."""
        if not 1 <= n <= 1 << 32:
            raise ValueError("draw cursors bound integers to [1, 2**32], got %r" % n)
        if n == 1:
            return 0
        product = self._uint32() * n
        if product & _LOW_HALF < n:
            threshold = ((1 << 32) - n) % n
            while product & _LOW_HALF < threshold:
                product = self._uint32() * n
        return product >> 32

    def gate_bytes(self) -> bytes:
        """Per word of the current chunk, 1 where its double is ``<= 0.5``, else 0."""
        if self._gate_bytes is None:
            self._gate_bytes = (self._words <= _HALF_WORD).tobytes()
        return self._gate_bytes

    def passes(self, p: float) -> list[int]:
        """Chunk positions, ascending, of the words whose double is ``<= p``."""
        if self._passes is None or self._passes[0] != p:
            self._passes = p, np.flatnonzero(self._words <= _largest_word(p)).tolist()
        return self._passes[1]

    def words(self) -> np.ndarray:
        """Every word drawn so far, by stream position (open or closed)."""
        return np.concatenate(self._spent + [self._words]) if self._spent else self._words

    def close(self) -> None:
        """Hand the generator back in the state the per-call draws leave.

        That is the saved state with the 32-bit buffer as the cursor left
        it, moved on by the words it consumed: ``random_raw`` leaves the
        buffer alone, ``advance`` clears it, so a few words are drawn
        again and many are skipped, the buffer set once more after.
        """
        state, generator, consumed = self._state, self._generator, self.start + self.pos
        state["has_uint32"], state["uinteger"] = int(self._pending), self._half
        generator.state = state
        if consumed <= _REPLAY_WORDS:
            generator.random_raw(consumed)
            return
        generator.advance(consumed)
        state = generator.state
        state["has_uint32"], state["uinteger"] = int(self._pending), self._half
        generator.state = state


class Variation:
    """The variation draws of one generation, applied in one pass.

    Each *slot* is one child: :meth:`add` (or :func:`sbx_crossover`, which
    adds a pair) starts it from a decision vector, the draw steps record
    the stream positions of the genes they act on, and :meth:`apply`
    computes every child at once.

    Parameters
    ----------
    lower, upper:
        Finite box bounds used to repair offspring.
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
        # on, and the stream positions of their draws: a crossed gene of
        # the first child keeps its gate (the spread and the swap follow
        # it), a mutated gene its perturbation.
        self._crossed: list[int] = []
        self._gates: list[int] = []
        self._mutated: list[int] = []
        self._perturbations: list[int] = []

    def add(self, x: np.ndarray) -> int:
        """Start a child from decision vector ``x`` (read when applied); returns its slot."""
        self._slots.append(np.asarray(x, dtype=float))
        return len(self._slots) - 1

    def apply(self, draws: Draws) -> np.ndarray:
        """All children as one ``(slots, n_var)`` matrix: SBX, then mutation.

        ``draws`` is the cursor the draw steps read; open or closed, it
        still holds the words they recorded.
        """
        n = self.n_var
        children = np.array(self._slots, dtype=float).reshape(-1, n)
        flat = children.reshape(-1)
        if self._crossed or self._mutated:
            words = draws.words()
        if self._crossed:
            first = np.array(self._crossed, dtype=np.intp)
            second = first + n
            genes = first % n
            gates = np.array(self._gates, dtype=np.intp)
            flat[first], flat[second] = _sbx(
                flat[first],
                flat[second],
                self.lower[genes],
                self.upper[genes],
                _doubles(words[gates + 1]),
                _doubles(words[gates + 2]),
                self.crossover_eta,
            )
        if self._mutated:
            at = np.array(self._mutated, dtype=np.intp)
            genes = at % n
            flat[at] = _mutate(
                flat[at],
                self.lower[genes],
                self.upper[genes],
                _doubles(words[self._perturbations]),
                self.mutation_eta,
            )
        return children


def sbx_crossover(
    variation: Variation, parent_a: np.ndarray, parent_b: np.ndarray, draws: Draws
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
    if draws.random() > variation.crossover_probability:
        return slot, slot + 1
    n = variation.n_var
    close = (np.abs(variation._slots[slot] - variation._slots[slot + 1]) < 1e-14).tolist()
    draws.reserve(3 * n)
    gate_passes, pos, start = draws.gate_bytes(), draws.pos, draws.start
    crossed, gates, first = variation._crossed, variation._gates, slot * n
    for i, near in enumerate(close):
        if gate_passes[pos] and not near:
            crossed.append(first + i)
            gates.append(start + pos)
            pos += 3
        else:
            pos += 1
    draws.pos = pos
    return slot, slot + 1


def polynomial_mutation(variation: Variation, slot: int, draws: Draws) -> None:
    """Draw step of the polynomial mutation of Deb, for the child in ``slot``.

    Draws: a gate per gene; a gene whose gate is ``<= probability`` and
    whose span is positive draws one more, the perturbation.
    """
    n, lower, upper = variation.n_var, variation.lower, variation.upper
    draws.reserve(2 * n)
    passes = draws.passes(variation.mutation_probability)
    # Gene g's gate is at chunk position ``origin + g``; each perturbation
    # drawn before it moves it one further.
    origin, start, first = draws.pos, draws.start, slot * n
    k, end = bisect_left(passes, origin), len(passes)
    while k < end:
        at = passes[k]
        gene = at - origin
        if gene >= n:
            break
        k += 1
        if upper[gene] - lower[gene] <= 0:  # zero span: the gate, nothing more
            continue
        variation._mutated.append(first + gene)
        variation._perturbations.append(start + at + 1)
        origin += 1
        if k < end and passes[k] == at + 1:  # the perturbation is no gate
            k += 1
    draws.pos = origin + n


def _powers(bases: np.ndarray, exponent: float) -> np.ndarray:
    """``bases ** exponent`` through C ``pow`` (:func:`math.pow`), one float at a time."""
    return np.fromiter(map(math.pow, bases.tolist(), repeat(exponent)), float, bases.size)


def _clamp(value, low, high):
    """``min(max(value, low), high)``, comparison for comparison."""
    value = np.where(low > value, low, value)
    return np.where(high < value, high, value)


def _sbx(x1, x2, low, high, rand, swap, eta):
    """SBX children of the recorded genes (the arithmetic pass)."""
    exponent = -(eta + 1.0)
    root = 1.0 / (eta + 1.0)
    x_min, x_max = np.where(x1 < x2, x1, x2), np.where(x1 < x2, x2, x1)
    gap, total = x_max - x_min, x_min + x_max
    spreads = []
    for beta in (1.0 + (2.0 * (x_min - low) / gap), 1.0 + (2.0 * (high - x_max) / gap)):
        alpha = 2.0 - _powers(beta, exponent)
        scaled = rand * alpha
        spreads.append(_powers(np.where(rand <= 1.0 / alpha, scaled, 1.0 / (2.0 - scaled)), root))
    child1 = _clamp(0.5 * (total - spreads[0] * gap), low, high)
    child2 = _clamp(0.5 * (total + spreads[1] * gap), low, high)
    swapped = swap > 0.5
    return np.where(swapped, child2, child1), np.where(swapped, child1, child2)


def _mutate(value, low, high, rand, eta):
    """Mutated values of the recorded genes (the arithmetic pass)."""
    span = high - low
    below = rand < 0.5
    xy = np.where(below, 1.0 - (value - low) / span, 1.0 - (high - value) / span)
    xy = _powers(xy, eta + 1.0)
    val = np.where(
        below,
        2.0 * rand + (1.0 - 2.0 * rand) * xy,
        2.0 * (1.0 - rand) + 2.0 * (rand - 0.5) * xy,
    )
    val = _powers(val, 1.0 / (eta + 1.0))
    delta_q = np.where(below, val - 1.0, 1.0 - val)
    return _clamp(value + delta_q * span, low, high)


def binary_tournament(population: Population, draws: Draws) -> int:
    """Constraint-aware binary tournament selection; returns the winner's row.

    Selection order: lower rank wins, then larger crowding distance, then a
    random pick.  The population must have rank and crowding assigned (i.e.
    it has been through :func:`repro.moo.nsga2.assign_ranks_and_crowding`).

    The (rank, crowding) decision is
    :func:`repro.moo.kernels.tournament_winner`.  Draws: two indices, as
    two ``integers(0, n)`` calls (the same values and state as one call of
    size 2), plus one uniform only on a full tie, so the random stream
    matches the classic sequential tournament exactly.
    """
    n = len(population)
    if n == 0:
        raise ConfigurationError("cannot select from an empty population")
    i, j = draws.integers(n), draws.integers(n)
    rank, crowding = population.rank, population.crowding
    if rank[i] < 0 or rank[j] < 0:
        raise ConfigurationError("tournament requires ranked individuals")
    winner = kernels.tournament_winner(rank[i], crowding[i], rank[j], crowding[j])
    if winner is None:
        return i if draws.random() < 0.5 else j
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
