"""Draw/apply variation == the scalar per-gene loops, bit for bit.

``repro.moo.operators`` walks the random stream per pair in draw steps that
record the uniforms, then does the arithmetic of a whole generation on
arrays; ``tests/oracles/operators.py`` keeps the loops that make one
``rng.random()`` call per decision and compute each gene on the spot, and
NSGA-II's per-pair generation loop over them.  For every seed both are run
on twin generators and must return the same bytes and leave the generators
in the same state, generation after generation (and, through a one-pair
record, call after call), so an engine's random stream cannot drift.
"""

import types
import warnings

import numpy as np
import pytest

from repro.moo import operators
from repro.moo.individual import Population
from repro.moo.nsga2 import NSGA2, NSGA2Config
from repro.problems.base import FunctionalProblem
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


def test_values_outside_the_box_keep_numpy_scalar_semantics():
    """Out-of-box genes give the loops' nan/inf results and warnings, not errors."""
    n = 30
    for seed in range(100):
        lower, upper, a, b = _box_and_parents(seed, n)
        setup = np.random.default_rng(30_000 + seed)
        a[setup.random(n) < 0.3] -= 10.0
        b[setup.random(n) < 0.3] += 10.0
        b[setup.random(n) < 0.1] = np.nan
        eta = 15.5
        rng_expected = np.random.default_rng(seed)
        rng_actual = np.random.default_rng(seed)
        expected, expected_warnings = _recorded(
            lambda: oracle.sbx_crossover(a, b, lower, upper, rng_expected, eta, 1.0)
        )
        actual, actual_warnings = _recorded(
            lambda: records.sbx_crossover(a, b, lower, upper, rng_actual, eta, 1.0)
        )
        _assert_twins(expected, actual, rng_expected, rng_actual)
        assert actual_warnings == expected_warnings
        expected, expected_warnings = _recorded(
            lambda: oracle.polynomial_mutation(b, lower, upper, rng_expected, eta, 1.0)
        )
        actual, actual_warnings = _recorded(
            lambda: records.polynomial_mutation(b, lower, upper, rng_actual, eta, 1.0)
        )
        _assert_twins([expected], [actual], rng_expected, rng_actual)
        assert actual_warnings == expected_warnings


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


def _run_generations(seed, n, size, generations=3, perturb=None):
    """Children and warnings of both sides, generation by generation."""
    setup, lower, upper, X, config = _generation_setup(seed, n, size)
    if perturb is not None:
        perturb(setup, X)
    rng_expected = np.random.default_rng(seed)
    rng_actual = np.random.default_rng(seed)
    engine = _engine(lower, upper, config, rng_actual)
    for _ in range(generations):
        # Coarse ranks and crowding: tournaments tie often and draw again.
        rank = setup.integers(0, 2, size)
        crowding = setup.choice([0.0, 0.5, 1.0, np.inf], size)
        population = Population.from_matrix(X)
        population.rank[:] = rank
        population.crowding[:] = crowding
        engine.population = population
        expected, expected_warnings = _recorded(
            lambda: oracle.offspring(X, rank, crowding, lower, upper, rng_expected, config)
        )
        actual, actual_warnings = _recorded(lambda: engine._make_offspring().X)
        assert actual.shape == expected.shape == (size, n)
        assert actual.tobytes() == expected.tobytes()
        assert rng_actual.bit_generator.state == rng_expected.bit_generator.state
        assert actual_warnings == expected_warnings
        X = np.array(actual)
    return expected_warnings


@pytest.mark.parametrize("n, size", GENERATION_CASES)
def test_generations_match_the_per_pair_loop(n, size):
    for seed in range(12 if n < 608 else 3):
        assert _run_generations(seed, n, size) == []


def test_generations_outside_the_box_keep_numpy_scalar_semantics():
    """Out-of-box genes give the loops' nan/inf children and the same warnings.

    Parents pushed out of the box run three generations; parents that are
    also nan run one.  Over more generations such nan parents would meet
    nan children of the opposite sign, and which nan an addition of two
    propagates depends on operand order, which the loops (numpy scalars)
    and the library (Python float parents, as before its rewrite) leave to
    different compiled code.
    """

    def push_out(setup, X):
        X[setup.random(X.shape) < 0.2] -= 10.0
        X[setup.random(X.shape) < 0.2] += 10.0

    def push_out_with_nan(setup, X):
        push_out(setup, X)
        X[setup.random(X.shape) < 0.05] = np.nan

    seen = set()
    for seed in range(24):
        for size in (4, 20):
            seen.update(_run_generations(seed, 30, size, perturb=push_out))
            seen.update(_run_generations(seed, 30, size, 1, perturb=push_out_with_nan))
    assert seen, "the out-of-box generations should warn"
