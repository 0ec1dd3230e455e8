"""Block-draw variation operators == the scalar per-gene loops, bit for bit.

``repro.moo.operators`` draws its uniforms in blocks and does the per-gene
arithmetic on Python floats; ``tests/oracles/operators.py`` keeps the loops
that make one ``rng.random()`` call per decision.  For every seed both are
run on twin generators and must return the same bytes and leave the
generators in the same state, call after call, so an engine's random stream
(tournament, SBX and mutation draws interleaved per pair) cannot drift.
"""

import warnings

import numpy as np
import pytest

from repro.moo import operators
from tests.oracles import operators as oracle

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
        actual = _chain(operators, seed, n, rng_actual)
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
        actual = operators.sbx_crossover(a, b, lower, upper, rng_actual, eta, probability)
        _assert_twins(expected, actual, rng_expected, rng_actual)


@pytest.mark.parametrize("eta", ETAS)
@pytest.mark.parametrize("probability", (None, 0.0, 1.0))
def test_mutation_matches_at_extreme_probabilities(eta, probability):
    for seed in range(100):
        lower, upper, x, _ = _box_and_parents(seed, 30)
        rng_expected = np.random.default_rng(seed)
        rng_actual = np.random.default_rng(seed)
        expected = oracle.polynomial_mutation(x, lower, upper, rng_expected, eta, probability)
        actual = operators.polynomial_mutation(x, lower, upper, rng_actual, eta, probability)
        _assert_twins([expected], [actual], rng_expected, rng_actual)


def test_identical_parents_and_zero_spans_consume_only_gates():
    n = 23
    lower = np.zeros(n)
    parent = np.full(n, 0.25)
    for seed in SEEDS:
        rng_expected = np.random.default_rng(seed)
        rng_actual = np.random.default_rng(seed)
        expected = oracle.sbx_crossover(parent, parent, lower, lower + 1.0, rng_expected, 15.0, 1.0)
        actual = operators.sbx_crossover(parent, parent, lower, lower + 1.0, rng_actual, 15.0, 1.0)
        _assert_twins(expected, actual, rng_expected, rng_actual)
        expected = oracle.polynomial_mutation(lower, lower, lower, rng_expected, 20.0, 1.0)
        actual = operators.polynomial_mutation(lower, lower, lower, rng_actual, 20.0, 1.0)
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
        actual = operators.differential_variation(
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
            lambda: operators.sbx_crossover(a, b, lower, upper, rng_actual, eta, 1.0)
        )
        _assert_twins(expected, actual, rng_expected, rng_actual)
        assert actual_warnings == expected_warnings
        expected, expected_warnings = _recorded(
            lambda: oracle.polynomial_mutation(b, lower, upper, rng_expected, eta, 1.0)
        )
        actual, actual_warnings = _recorded(
            lambda: operators.polynomial_mutation(b, lower, upper, rng_actual, eta, 1.0)
        )
        _assert_twins([expected], [actual], rng_expected, rng_actual)
        assert actual_warnings == expected_warnings
