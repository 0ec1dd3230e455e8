"""Draw/apply variation == the scalar per-gene loops, bit for bit.

``repro.moo.operators`` reads the random stream from a cursor over raw
PCG64 words in draw steps that record stream positions, then does the
arithmetic of a whole generation on arrays; ``tests/oracles/operators.py``
keeps the loops that make one generator call per decision and compute each
gene on the spot, and NSGA-II's per-pair generation loop over them.  For
every seed both are run on twin generators and must return the same bytes
and leave the generators in the same state, generation after generation
(and, through a one-pair record, call after call), so an engine's random
stream cannot drift.  The cursor itself is held to ``rng.random()`` and
``rng.integers(0, n)`` in any mix.  Non-finite boxes and parents outside
the box are refused before any draw.  The powers are checked on both of
their paths (``np.float_power`` where the guard passes, and the forced
:func:`math.pow` fallback), the crossed genes rebuilt from the recorded
SBX walks against the walk itself, and the Latin hypercube against its
column loop.
"""

import math
import pickle
import sys
import types
import warnings

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.moo import operators
from repro.moo.individual import Population
from repro.moo import moead, nsga2
from repro.moo.moead import MOEAD, MOEADConfig
from repro.moo.nsga2 import NSGA2, NSGA2Config
from repro.moo.operators import Draws
from repro.moo.pmo2 import PMO2Config, build_pmo2
from repro.problems.base import FunctionalProblem
from repro.solve import SolveRequest, solve
from repro.solve.registry import get_solver
from tests.helpers import crossover_pair, mutate
from tests.oracles import operators as oracle

#: The library's draw steps and apply pass behind the oracle's per-pair
#: signatures: each call runs on a one-pair (or one-child) record.
records = types.SimpleNamespace(
    sbx_crossover=crossover_pair,
    polynomial_mutation=mutate,
    differential_variation=operators.differential_variation,
)

SEEDS = range(300)
N_VARS = (1, 2, 23, 30, 608)
ETAS = (1.0, 15.0, 200.0)
SBX_PROBABILITIES = (0.9, 1.0, 0.0)
MUTATION_PROBABILITIES = (None, 1.0, 0.0, 0.5)



def _box_and_parents(seed, n):
    """Bounds and two parents with the degenerate genes the loops branch on.

    Some genes have zero span, some have identical or 1e-15-apart parents,
    and some parents sit exactly on a bound.
    """
    setup = np.random.default_rng(10_000 + seed)
    lower = setup.uniform(-5.0, 0.0, n)
    upper = lower + setup.uniform(0.0, 5.0, n)
    a = setup.uniform(lower, upper)
    b = setup.uniform(lower, upper)
    kind = setup.integers(0, 8, n)
    upper[kind == 0] = lower[kind == 0]
    a[kind == 0] = b[kind == 0] = lower[kind == 0]
    b[kind == 1] = a[kind == 1]
    b[kind == 2] = a[kind == 2] + 1e-15
    a[kind == 3] = lower[kind == 3]
    b[kind == 4] = upper[kind == 4]
    return lower, upper, a, b


def _assert_twins(expected, actual, rng_expected, rng_actual):
    for want, got in zip(expected, actual):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert rng_actual.bit_generator.state == rng_expected.bit_generator.state


def _chain(module, seed, n, rng, calls=3):
    """SBX followed by two mutations per call, as NSGA-II runs them per pair."""
    lower, upper, a, b = _box_and_parents(seed, n)
    eta = ETAS[seed % len(ETAS)]
    crossover_probability = SBX_PROBABILITIES[seed % len(SBX_PROBABILITIES)]
    mutation_probability = MUTATION_PROBABILITIES[seed % len(MUTATION_PROBABILITIES)]
    outputs = []
    for _ in range(calls):
        a, b = module.sbx_crossover(
            a, b, lower, upper, rng, eta=eta, probability=crossover_probability
        )
        a = module.polynomial_mutation(
            a, lower, upper, rng, eta=eta, probability=mutation_probability
        )
        b = module.polynomial_mutation(
            b, lower, upper, rng, eta=eta, probability=mutation_probability
        )
        outputs.append((a, b, rng.bit_generator.state))
    return outputs


@pytest.mark.parametrize("n", N_VARS)
def test_sbx_then_mutation_matches_scalar_loops(n):
    for seed in SEEDS:
        rng_expected = np.random.default_rng(seed)
        rng_actual = np.random.default_rng(seed)
        expected = _chain(oracle, seed, n, rng_expected)
        actual = _chain(records, seed, n, rng_actual)
        for (*want, want_state), (*got, got_state) in zip(expected, actual):
            _assert_twins(want, got, rng_expected, rng_actual)
            assert got_state == want_state


@pytest.mark.parametrize("eta", ETAS)
@pytest.mark.parametrize("probability", (0.0, 1.0))
def test_sbx_matches_at_extreme_probabilities(eta, probability):
    for seed in range(100):
        lower, upper, a, b = _box_and_parents(seed, 30)
        rng_expected = np.random.default_rng(seed)
        rng_actual = np.random.default_rng(seed)
        expected = oracle.sbx_crossover(a, b, lower, upper, rng_expected, eta, probability)
        actual = records.sbx_crossover(a, b, lower, upper, rng_actual, eta, probability)
        _assert_twins(expected, actual, rng_expected, rng_actual)


@pytest.mark.parametrize("eta", ETAS)
@pytest.mark.parametrize("probability", (None, 0.0, 1.0))
def test_mutation_matches_at_extreme_probabilities(eta, probability):
    for seed in range(100):
        lower, upper, x, _ = _box_and_parents(seed, 30)
        rng_expected = np.random.default_rng(seed)
        rng_actual = np.random.default_rng(seed)
        expected = oracle.polynomial_mutation(x, lower, upper, rng_expected, eta, probability)
        actual = records.polynomial_mutation(x, lower, upper, rng_actual, eta, probability)
        _assert_twins([expected], [actual], rng_expected, rng_actual)


def test_identical_parents_and_zero_spans_consume_only_gates():
    n = 23
    lower = np.zeros(n)
    parent = np.full(n, 0.25)
    for seed in SEEDS:
        rng_expected = np.random.default_rng(seed)
        rng_actual = np.random.default_rng(seed)
        expected = oracle.sbx_crossover(parent, parent, lower, lower + 1.0, rng_expected, 15.0, 1.0)
        actual = records.sbx_crossover(parent, parent, lower, lower + 1.0, rng_actual, 15.0, 1.0)
        _assert_twins(expected, actual, rng_expected, rng_actual)
        expected = oracle.polynomial_mutation(lower, lower, lower, rng_expected, 20.0, 1.0)
        actual = records.polynomial_mutation(lower, lower, lower, rng_actual, 20.0, 1.0)
        _assert_twins([expected], [actual], rng_expected, rng_actual)


@pytest.mark.parametrize("n", N_VARS)
def test_differential_variation_matches_scalar_repair(n):
    for seed in SEEDS:
        setup = np.random.default_rng(20_000 + seed)
        lower = setup.uniform(-1.0, 0.0, n)
        upper = lower + setup.uniform(0.0, 2.0, n)
        base, donor_a, donor_b = (setup.uniform(lower, upper) for _ in range(3))
        base[::3] = lower[::3]
        scale = (0.5, 1.0, 3.0)[seed % 3]
        crossover_rate = (1.0, 0.5, 0.0)[seed % 3]
        rng_expected = np.random.default_rng(seed)
        rng_actual = np.random.default_rng(seed)
        expected = oracle.differential_variation(
            base, donor_a, donor_b, lower, upper, rng_expected, scale, crossover_rate
        )
        actual = records.differential_variation(
            base, donor_a, donor_b, lower, upper, rng_actual, scale, crossover_rate
        )
        _assert_twins([expected], [actual], rng_expected, rng_actual)


def _recorded(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, sorted({(w.category.__name__, str(w.message)) for w in caught})


# ---------------------------------------------------------------------------
# Whole generations: NSGA-II's draw steps and one apply pass against the
# oracle's per-pair loop.
# ---------------------------------------------------------------------------
GENERATION_CASES = [(n, size) for n in (1, 2, 23, 30) for size in (4, 6, 10, 32, 100)]
GENERATION_CASES += [(608, 4), (608, 10), (608, 100)]


def _generation_setup(seed, n, size):
    """Box, parents and engine settings with every branch the loops take.

    Some genes have zero span; some parents sit on a bound, are copies of
    another row or 1e-15 away from one; the probabilities include 0 and 1
    and the distribution indices span 1 to 200.
    """
    setup = np.random.default_rng(40_000 + seed)
    lower = setup.uniform(-5.0, 0.0, n)
    upper = lower + setup.uniform(0.0, 5.0, n)
    zero_span = setup.random(n) < 0.1
    upper[zero_span] = lower[zero_span]
    X = setup.uniform(lower, upper, (size, n))
    kind = setup.integers(0, 8, (size, n))
    X[kind == 0] = np.broadcast_to(lower, X.shape)[kind == 0]
    X[kind == 1] = np.broadcast_to(upper, X.shape)[kind == 1]
    X[1::3] = X[0::3][: len(X[1::3])]
    X[2::3] = np.clip(X[0::3][: len(X[2::3])] + 1e-15, lower, upper)
    config = NSGA2Config(
        population_size=size,
        crossover_probability=SBX_PROBABILITIES[seed % 3],
        crossover_eta=ETAS[(seed // 3) % 3],
        mutation_probability=MUTATION_PROBABILITIES[seed % 4],
        mutation_eta=ETAS[(seed // 4) % 3],
    )
    return setup, lower, upper, X, config


def _engine(lower, upper, config, rng):
    problem = FunctionalProblem(
        lower.size, [lambda x: 0.0, lambda x: 0.0], lower_bounds=lower, upper_bounds=upper
    )
    engine = NSGA2(problem, config)
    engine.rng = rng
    return engine


def _run_generations(seed, n, size, generations=3):
    """Children of the cursor and of the per-call reference, generation by generation."""
    setup, lower, upper, X, config = _generation_setup(seed, n, size)
    rng_expected = np.random.default_rng(seed)
    rng_actual = np.random.default_rng(seed)
    reference = _engine(lower, upper, config, rng_expected)
    engine = _engine(lower, upper, config, rng_actual)
    for _ in range(generations):
        # Coarse ranks and crowding: tournaments tie often and draw again.
        rank = setup.integers(0, 2, size)
        crowding = setup.choice([0.0, 0.5, 1.0, np.inf], size)
        for side in (reference, engine):
            side.population = Population.from_matrix(X)
            side.population.rank[:] = rank
            side.population.crowding[:] = crowding
        expected, expected_warnings = _recorded(lambda: oracle.make_offspring(reference))
        actual, actual_warnings = _recorded(lambda: engine._make_offspring().X)
        assert actual.shape == expected.shape == (size, n)
        assert actual.tobytes() == expected.tobytes()
        assert rng_actual.bit_generator.state == rng_expected.bit_generator.state
        assert actual_warnings == expected_warnings == []
        X = np.array(actual)


@pytest.mark.parametrize("n, size", GENERATION_CASES)
def test_generations_match_the_per_pair_loop(n, size):
    for seed in range(12 if n < 608 else 3):
        _run_generations(seed, n, size)


@pytest.mark.parametrize("chunk", (1, 2, 7, 64))
def test_generations_match_across_chunk_boundaries(chunk, monkeypatch):
    """Tiny chunks: every step refills, most of them mid-step's worst case."""
    monkeypatch.setattr(operators, "CHUNK_WORDS", chunk)
    for seed in range(4):
        for n, size in ((1, 4), (2, 6), (23, 10), (30, 32)):
            _run_generations(seed, n, size, generations=2)


def _refused(*args):
    raise AssertionError("np.float_power called on the math.pow path")


class TestMathPowFallback:
    """The oracles again, with the powers forced onto :func:`math.pow`."""

    @pytest.fixture(autouse=True)
    def _fallback(self, monkeypatch):
        monkeypatch.setattr(operators, "_float_power_exact", False)
        monkeypatch.setattr(np, "float_power", _refused)

    @pytest.mark.parametrize("n", N_VARS)
    def test_sbx_then_mutation_matches_scalar_loops(self, n):
        test_sbx_then_mutation_matches_scalar_loops(n)

    @pytest.mark.parametrize("eta", ETAS)
    def test_extreme_probabilities(self, eta):
        for probability in (0.0, 1.0):
            test_sbx_matches_at_extreme_probabilities(eta, probability)
        for probability in (None, 0.0, 1.0):
            test_mutation_matches_at_extreme_probabilities(eta, probability)

    def test_identical_parents_and_zero_spans_consume_only_gates(self):
        test_identical_parents_and_zero_spans_consume_only_gates()

    @pytest.mark.parametrize("n, size", [(1, 4), (23, 10), (30, 100), (608, 100)])
    def test_generations_match_the_per_pair_loop(self, n, size):
        for seed in range(6 if n < 608 else 2):
            _run_generations(seed, n, size)


# ---------------------------------------------------------------------------
# The powers' guard.
# ---------------------------------------------------------------------------
class TestFloatPowerGuard:
    def test_missing_introspection_keeps_math_pow(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy.lib.introspect", None)
        assert operators._float_power_is_pow() is False

    def test_a_dispatched_loop_keeps_math_pow(self, monkeypatch):
        introspect = pytest.importorskip("numpy.lib.introspect")
        dispatched = {"float_power": {"ddd": {"current": "X86_V4", "available": "X86_V4"}}}
        monkeypatch.setattr(
            introspect, "opt_func_info", lambda func_name=None, signature=None: dispatched
        )
        assert operators._float_power_is_pow() is False

    def test_a_probe_mismatch_keeps_math_pow(self, monkeypatch):
        pytest.importorskip("numpy.lib.introspect")
        pow_map = operators._pow_map
        monkeypatch.setattr(
            np, "float_power", lambda bases, e: np.nextafter(pow_map(bases, e), np.inf)
        )
        assert operators._float_power_is_pow() is False

    def test_an_undispatched_float_power_passes(self):
        introspect = pytest.importorskip("numpy.lib.introspect")
        if introspect.opt_func_info(func_name="^float_power$"):
            pytest.skip("this numpy dispatches float_power")
        assert operators._float_power_is_pow() is True

    def test_the_verdict_is_taken_once_per_process(self, monkeypatch):
        verdicts = []
        monkeypatch.setattr(operators, "_float_power_exact", None)
        monkeypatch.setattr(operators, "_float_power_is_pow", lambda: verdicts.append(0) or False)
        bases = np.array([0.5, 1.5, 2.5])
        for exponent in (-16.0, 1.0 / 16.0):
            expected = np.array([math.pow(base, exponent) for base in bases.tolist()])
            assert operators._powers(bases, exponent).tobytes() == expected.tobytes()
        assert verdicts == [0] and operators._float_power_exact is False


# ---------------------------------------------------------------------------
# Crossed genes rebuilt from the recorded SBX walks, against the walk.
# ---------------------------------------------------------------------------
def _walk_population(seed, n, size):
    """Rows whose pairs are all near, have runs of near genes, or neither.

    Rows ``1::4`` copy rows ``0::4``, rows ``3::4`` sit ``1e-15`` off them
    and rows ``2::4`` copy a random run of their genes.
    """
    setup = np.random.default_rng(60_000 + seed)
    X = setup.uniform(-1.0, 1.0, (size, n))
    X[1::4] = X[0::4][: len(X[1::4])]
    X[3::4] = X[0::4][: len(X[3::4])] + 1e-15
    for row in range(2, size, 4):
        start, stop = np.sort(setup.integers(0, n + 1, 2))
        X[row, start:stop] = X[row - 2, start:stop]
    return X


def _spy_on_crossovers(monkeypatch, module):
    """Record every SBX draw step an engine module runs: its record, cursor,
    stream position, first slot and which genes' parents are near.

    The parents may be rows the engine overwrites later, so closeness is
    taken on the spot.
    """
    steps = []

    def spy(variation, parent_a, parent_b, draws):
        position = draws.start + draws.pos
        close = np.abs(parent_a - parent_b) < 1e-14
        slot, other = operators.sbx_crossover(variation, parent_a, parent_b, draws)
        steps.append((variation, draws, position, slot, close))
        return slot, other

    monkeypatch.setattr(module, "sbx_crossover", spy)
    return steps


def _assert_walks_match_the_oracle(steps):
    """Each record's rebuilt crossings equal :func:`oracle.sbx_walk` over its words.

    Returns each walk's chunk start and its first gate's position in that
    chunk, and how many walked pairs were all near or had a run of near
    genes.
    """
    records = {}
    for variation, draws, *pair in steps:
        records.setdefault(id(variation), (variation, draws, []))[2].append(pair)
    starts, all_near, near_runs = [], 0, 0
    for variation, draws, pairs in records.values():
        stream = (draws.words() >> 11) * 2.0**-53
        n, at, gates, walked = variation.n_var, [], [], []
        for position, slot, close in pairs:
            if stream[position] > variation.crossover_probability:
                continue
            all_near += bool(close.all())
            near_runs += bool(0 < close.sum() < n)
            genes, positions, _ = oracle.sbx_walk(stream, close, position + 1)
            at += [slot * n + gene for gene in genes]
            gates += positions
            walked.append(position + 1)
        assert len(variation._walks) == len(walked)
        starts += [(start, first - start) for (_, start, _), first in zip(variation._walks, walked)]
        if not walked:
            continue
        rebuilt_at, rebuilt_gates = variation._crossings()
        assert rebuilt_at.tolist() == at and rebuilt_gates.tolist() == gates
    return starts, all_near, near_runs


def _problem(n):
    return FunctionalProblem(
        n,
        [lambda x: float(np.sum(x)), lambda x: float(-np.sum(x))],
        lower_bounds=[-1.0] * n,
        upper_bounds=[1.0] * n,
    )


@pytest.mark.parametrize("n", (1, 2, 7, 30))
@pytest.mark.parametrize("chunk", (1, 64, None))
def test_nsga2_walks_rebuild_the_oracle_crossings(n, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(operators, "CHUNK_WORDS", chunk)
    steps = _spy_on_crossovers(monkeypatch, nsga2)
    for seed in range(4):
        config = NSGA2Config(population_size=16, crossover_probability=(0.9, 1.0)[seed % 2])
        engine = NSGA2(_problem(n), config, seed=seed)
        engine.population = Population.from_matrix(_walk_population(seed, n, 16))
        engine.population.rank[:] = 0  # every tournament a tie: random pairs
        engine._make_offspring()
    starts, all_near, near_runs = _assert_walks_match_the_oracle(steps)
    assert all_near and (near_runs or n == 1)
    if chunk == 1:  # every walk starts right after the refill of its reserve
        assert all(origin == 0 for _, origin in starts)
        assert any(start > 0 for start, _ in starts)


@pytest.mark.parametrize("n", (1, 7, 30))
def test_moead_sbx_walks_rebuild_the_oracle_crossings(n, monkeypatch):
    steps = _spy_on_crossovers(monkeypatch, moead)
    for seed in range(3):
        config = MOEADConfig(population_size=12, neighborhood_size=4, variation="sbx")
        engine = MOEAD(_problem(n), config, seed=seed)
        engine.initialize()
        engine.population = Population.from_matrix(_walk_population(seed, n, 12))
        engine.population.evaluate(engine.problem, engine.evaluator)
        engine.step()
    starts, all_near, near_runs = _assert_walks_match_the_oracle(steps)
    assert starts and all_near and (near_runs or n == 1)


# ---------------------------------------------------------------------------
# The Latin hypercube against its column loop.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("n", (1, 2, 30, 608))
@pytest.mark.parametrize("size", (1, 2, 10, 100))
def test_latin_hypercube_matches_the_column_loop(n, size):
    setup = np.random.default_rng(70_000 + n)
    lower = setup.uniform(-5.0, 0.0, n)
    upper = lower + setup.uniform(0.0, 5.0, n)
    upper[::7] = lower[::7]
    problem = FunctionalProblem(n, [lambda x: 0.0], lower_bounds=lower, upper_bounds=upper)
    for seed in range(3):
        rng_expected = np.random.default_rng(seed)
        rng_actual = np.random.default_rng(seed)
        expected = oracle.latin_hypercube(problem, size, rng_expected)
        actual = operators.latin_hypercube(problem, size, rng_actual).X
        assert actual.flags.c_contiguous and actual.shape == expected.shape == (size, n)
        assert actual.tobytes() == expected.tobytes()
        assert rng_actual.bit_generator.state == rng_expected.bit_generator.state


# ---------------------------------------------------------------------------
# The draw cursor against per-call draws.
# ---------------------------------------------------------------------------
#: Tournament-sized bounds, and bounds just above 2**31, where Lemire's
#: method rejects almost half its 32-bit draws; 2**32 takes one half as is.
BOUNDS = list(range(1, 1025)) + [2**31 + 1, 2**31 + 5, 3 * 2**30, 2**32 - 1, 2**32]


def _per_call(rng, plan):
    return [rng.random() if n == 0 else int(rng.integers(0, n)) for n in plan]


def _cursor(rng, plan, chunk=None):
    with Draws(rng, chunk) as draws:
        return [draws.random() if n == 0 else draws.integers(n) for n in plan]


def _plan(seed, count, bounds=BOUNDS):
    """``count`` draws: 0 is ``random()``, ``n`` is ``integers(0, n)``."""
    setup = np.random.default_rng(50_000 + seed)
    plan = [int(n) for n in setup.choice(bounds, count)]
    return [0 if uniform else n for n, uniform in zip(plan, setup.random(count) < 0.4)]


def _assert_same_generators(rng_actual, rng_expected):
    assert rng_actual.bit_generator.state == rng_expected.bit_generator.state
    assert pickle.dumps(rng_actual) == pickle.dumps(rng_expected)
    assert rng_actual.random(5).tobytes() == rng_expected.random(5).tobytes()
    assert rng_actual.integers(0, 7, 5).tolist() == rng_expected.integers(0, 7, 5).tolist()


@pytest.mark.parametrize("chunk", (1, 2, 3, 7, 64, None))
def test_cursor_matches_per_call_draws(chunk):
    for seed in range(20):
        plan = _plan(seed, 2000)
        rng_expected = np.random.default_rng(seed)
        rng_actual = np.random.default_rng(seed)
        expected = _per_call(rng_expected, plan)
        actual = _cursor(rng_actual, plan, chunk)
        assert [type(value) for value in actual] == [type(value) for value in expected]
        assert actual == expected
        _assert_same_generators(rng_actual, rng_expected)


def test_cursor_rejects_like_lemire_above_two_to_the_31():
    bounds = [2**31 + 1, 2**31 + 5, 2**31 + 2**30 + 7]
    for seed in range(10):
        plan = [int(n) for n in np.random.default_rng(seed).choice(bounds, 3000)]
        rng_expected = np.random.default_rng(seed)
        rng_actual = np.random.default_rng(seed)
        assert _cursor(rng_actual, plan, 5) == _per_call(rng_expected, plan)
        _assert_same_generators(rng_actual, rng_expected)


@pytest.mark.parametrize("prefix", ([], [10], [10, 10], [0, 10], [10, 0, 10, 10]))
@pytest.mark.parametrize("count", (0, 1, 2, 5, 1023, 1024, 1025, 3000))
def test_cursor_hands_back_the_32_bit_buffer(prefix, count):
    """Entering with a pending half, or with a consumed (stale) one, and
    closing after few draws (replayed) or many (advanced)."""
    for seed in range(3):
        rng_expected = np.random.default_rng(seed)
        rng_actual = np.random.default_rng(seed)
        assert _per_call(rng_expected, prefix) == _per_call(rng_actual, prefix)
        plan = _plan(seed, count, [1, 2, 3, 100, 2**31 + 5])
        assert _cursor(rng_actual, plan, 16) == _per_call(rng_expected, plan)
        _assert_same_generators(rng_actual, rng_expected)


def test_cursor_keeps_a_consumed_high_half():
    """numpy keeps the last high half after it is consumed; so must the cursor."""
    rng_expected = np.random.default_rng(3)
    rng_actual = np.random.default_rng(3)
    _per_call(rng_expected, [10, 10, 0])
    _cursor(rng_actual, [10, 10, 0])
    state = rng_expected.bit_generator.state
    assert state["has_uint32"] == 0 and state["uinteger"] != 0
    assert rng_actual.bit_generator.state == state


def test_cursor_bounds_integers_to_32_bits():
    with Draws(np.random.default_rng(0)) as draws:
        for n in (0, -3, 2**32 + 1):
            with pytest.raises(ValueError):
                draws.integers(n)


@pytest.mark.parametrize(
    "bit_generator", (np.random.MT19937, np.random.PCG64DXSM, np.random.Philox)
)
def test_non_pcg64_generators_are_refused(bit_generator):
    rng = np.random.Generator(bit_generator(0))
    with pytest.raises(ConfigurationError, match="PCG64"):
        Draws(rng)
    problem = FunctionalProblem(
        2, [lambda x: x[0], lambda x: x[1]], lower_bounds=[0, 0], upper_bounds=[1, 1]
    )
    for engine in (NSGA2, MOEAD):
        with pytest.raises(ConfigurationError, match="PCG64"):
            engine(problem, seed=rng)


# ---------------------------------------------------------------------------
# The box: finite, and parents inside it.
# ---------------------------------------------------------------------------
def _box_problem(lower, upper):
    return FunctionalProblem(
        len(lower),
        [lambda x: float(np.sum(x)), lambda x: float(-np.sum(x))],
        lower_bounds=lower,
        upper_bounds=upper,
    )


@pytest.mark.parametrize(
    "lower, upper, named",
    [
        ([-np.inf, 0.0, 0.0], [1.0, 1.0, 1.0], "x0"),
        ([0.0, 0.0, 0.0], [1.0, np.inf, np.inf], "x1, x2"),
        ([-np.inf, -np.inf, 0.0], [np.inf, np.inf, 1.0], "x0, x1"),
    ],
)
def test_non_finite_boxes_are_refused(lower, upper, named):
    problem = _box_problem(lower, upper)
    message = "finite box; non-finite bounds on %s$" % named
    for build in (
        lambda: NSGA2(problem),
        lambda: MOEAD(problem),
        lambda: build_pmo2(problem, PMO2Config(island_population_size=8)),
        lambda: solve(problem, "nsga2", termination=1),
    ):
        with pytest.raises(ConfigurationError, match=message):
            build()


def test_solve_requests_refuse_non_finite_boxes():
    with pytest.raises(ConfigurationError, match="non-finite bounds on x"):
        SolveRequest(problem="schaffer?bound=inf").validate()
    with pytest.raises(ConfigurationError, match="non-finite bounds"):
        SolveRequest(problem="photosynthesis?upper_scale=inf").validate()


def test_zero_span_genes_stay_legal():
    problem = _box_problem([0.0, 0.5, -1.0], [1.0, 0.5, 1.0])
    for algorithm in ("nsga2", "moead", "pmo2"):
        population = get_solver(algorithm).population_overrides(8)
        result = solve(problem, algorithm, seed=1, termination=3, **population)
        assert np.all(result.front_decisions()[:, 1] == 0.5)


@pytest.mark.parametrize("column, value", [(0, -10.0), (1, 10.0), (2, np.nan), (0, np.inf)])
def test_parents_outside_the_box_are_refused(column, value):
    problem = _box_problem([0.0, 0.0, -1.0], [1.0, 2.0, 1.0])
    X = np.random.default_rng(0).uniform(problem.lower_bounds, problem.upper_bounds, (8, 3))
    X[0] = problem.lower_bounds
    X[1] = problem.upper_bounds  # on the bounds is inside
    engine = NSGA2(problem, NSGA2Config(population_size=8))
    engine.initialize(population=Population.from_matrix(X))
    X[5, column] = value
    message = "finite and inside the box; it is not on x%d$" % column
    with pytest.raises(ConfigurationError, match=message):
        NSGA2(problem, NSGA2Config(population_size=8)).initialize(
            population=Population.from_matrix(X)
        )
    with pytest.raises(ConfigurationError, match=message):
        solve(
            problem,
            "nsga2",
            termination=1,
            population_size=8,
            initial_population=Population.from_matrix(X),
        )
