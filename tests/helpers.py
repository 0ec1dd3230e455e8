"""Helpers shared by the test modules."""

import numpy as np

from repro.solve import SolverSpec, solve


def solve_engine(problem, engine, termination, **kwargs):
    """Run a hand-built ``engine`` through :func:`repro.solve.solve`.

    The solver registry builds engines from configurations; tests that need
    the engine object afterwards (its archive, islands or migration hooks)
    hand a ready instance in through a one-off :class:`SolverSpec`.
    """
    spec = SolverSpec("hand-built", "engine under test", dict, lambda *args: engine)
    return solve(problem, spec, termination=termination, **kwargs)


def crossover_pair(parent_a, parent_b, lower, upper, rng, eta=15.0, probability=0.9):
    """SBX of one pair: its draw step on a one-pair variation record, applied."""
    from repro.moo.operators import Draws, Variation, sbx_crossover

    variation = Variation(lower, upper, crossover_eta=eta, crossover_probability=probability)
    with Draws(rng) as draws:
        sbx_crossover(variation, parent_a, parent_b, draws)
    child_a, child_b = variation.apply(draws)
    return child_a, child_b


def mutate(x, lower, upper, rng, eta=20.0, probability=None):
    """Polynomial mutation of one vector: its draw step on a one-child record, applied."""
    from repro.moo.operators import Draws, Variation, polynomial_mutation

    variation = Variation(lower, upper, mutation_eta=eta, mutation_probability=probability)
    with Draws(rng) as draws:
        polynomial_mutation(variation, variation.add(x), draws)
    return variation.apply(draws)[0]


def evaluated_population(F, CV):
    """A population with objectives ``F`` and violations ``CV`` (decisions zero)."""
    from repro.moo.individual import Individual, Population

    individuals = []
    for row, violation in zip(F, CV):
        individual = Individual(np.zeros(2))
        individual.objectives = np.array(row, dtype=float)
        individual.constraint_violation = float(violation)
        individuals.append(individual)
    return Population(individuals)


def covering_prefix(fronts, cover):
    """The shortest prefix of ``fronts`` holding ``cover`` rows (all when they run out)."""
    sizes = np.cumsum([len(front) for front in fronts])
    return fronts[: min(int(np.searchsorted(sizes, cover)) + 1, len(fronts))]


def assert_ranked_like_reference(F, CV):
    """``assign_ranks_and_crowding`` of ``(F, CV)`` equals the reference, bit for bit.

    The fronts are the reference sort's, in its order, and every member
    carries its front's rank and the reference crowding of its front.
    """
    from repro.moo.nsga2 import assign_ranks_and_crowding
    from tests.oracles.kernels import (
        reference_crowding_distance,
        reference_fast_non_dominated_sort,
    )

    expected = reference_fast_non_dominated_sort(F, CV)
    population = evaluated_population(F, CV)
    assert assign_ranks_and_crowding(population) == expected
    for rank, front in enumerate(expected):
        assert population.rank[front].tolist() == [rank] * len(front)
        np.testing.assert_array_equal(
            population.crowding[front], reference_crowding_distance(F[np.asarray(front)])
        )
