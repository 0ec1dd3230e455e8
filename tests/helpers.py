"""Helpers shared by the test modules."""

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
