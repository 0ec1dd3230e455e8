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
