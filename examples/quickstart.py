"""Quickstart: optimize a small two-objective problem with PMO2.

This example shows the core workflow of the library on a synthetic problem
with a known Pareto front (Schaffer's problem), so it runs in a couple of
seconds:

1. define (or pick) a :class:`repro.moo.Problem`,
2. run the PMO2 archipelago (the paper's adopted configuration) through the
   unified :func:`repro.solve.solve` entry point,
3. mine the front with the automatic trade-off selections of Sec. 2.2,
4. measure the robustness yield Γ of a selected design.

Run with::

    python examples/quickstart.py

The canned paper experiments are also runnable without writing any code:
``python -m repro list`` / ``python -m repro run photosynthesis-table1``,
and any solver/problem pair via ``python -m repro solve zdt1 --algorithm
nsga2`` (see docs/cli.md and docs/solving.md).  ``examples/
artifact_workflow.py`` shows the registry + run-artifact workflow
programmatically, and ``examples/custom_termination.py`` the pluggable
termination / observer hooks.
"""

from __future__ import annotations

from repro.moo import (
    PMO2Config,
    RobustnessSettings,
    closest_to_ideal,
    hypervolume,
    mine_front,
    uptake_yield,
)
from repro.moo.testproblems import Schaffer
from repro.solve import MaxGenerations, solve


def main() -> None:
    # 1. The problem: minimize f1 = x^2 and f2 = (x - 2)^2 over x in [-10, 10].
    problem = Schaffer()

    # 2. PMO2: two NSGA-II islands, broadcast migration (interval scaled down
    #    to the short run used here).  `solve` runs any registered algorithm
    #    ("nsga2", "moead", "pmo2") through the same call.
    config = PMO2Config(
        n_islands=2,
        island_population_size=24,
        migration_interval=10,
        migration_rate=0.5,
        topology="all-to-all",
    )
    result = solve(
        problem,
        algorithm="pmo2",
        config=config,
        seed=42,
        termination=MaxGenerations(40),
    )
    front = result.front_objectives()
    decisions = result.front_decisions()
    print("PMO2 finished: %d evaluations, %d non-dominated solutions"
          % (result.evaluations, front.shape[0]))
    print("front hypervolume: %.3f" % hypervolume(front))

    # 3. Mine the front: closest-to-ideal point and shadow minima.
    selection = mine_front(front, objective_names=["f1", "f2"])
    for name in selection.names():
        objectives = selection.objectives(name)
        print("  %-18s f1=%.3f f2=%.3f" % (name, objectives[0], objectives[1]))

    # 4. Robustness of the closest-to-ideal design: fraction of 10 % random
    #    perturbations that keep f1 within 5 % of its nominal value.
    chosen = decisions[closest_to_ideal(front)]
    report = uptake_yield(
        chosen,
        lambda X: problem.evaluate_matrix(X).F[:, 0],
        settings=RobustnessSettings(epsilon=0.05, global_trials=500, seed=0),
    )
    print("closest-to-ideal design x=%.3f, robustness yield = %.1f %%"
          % (chosen[0], report.yield_percentage))


if __name__ == "__main__":
    main()
