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
    from repro.moo.operators import Variation, sbx_crossover

    variation = Variation(lower, upper, crossover_eta=eta, crossover_probability=probability)
    sbx_crossover(variation, parent_a, parent_b, rng)
    child_a, child_b = variation.apply()
    return child_a, child_b


def mutate(x, lower, upper, rng, eta=20.0, probability=None):
    """Polynomial mutation of one vector: its draw step on a one-child record, applied."""
    from repro.moo.operators import Variation, polynomial_mutation

    variation = Variation(lower, upper, mutation_eta=eta, mutation_probability=probability)
    polynomial_mutation(variation, variation.add(x), rng)
    return variation.apply()[0]
