"""Custom termination criteria and streaming run observers.

This example shows the two extension points of the unified solver API
(:mod:`repro.solve`):

1. a **user-defined termination criterion** — any object with a
   ``should_stop(progress)`` method subclassing
   :class:`repro.solve.Termination` plugs into every engine and composes
   with the built-in criteria via ``&`` / ``|``;
2. an **observer** — an object receiving ``on_generation`` /
   ``on_migration`` / ``on_checkpoint`` events while the run streams, here
   used to log the front's hypervolume per generation.

Run with::

    python examples/custom_termination.py
"""

from __future__ import annotations

from repro.moo.metrics import hypervolume
from repro.moo.testproblems import ZDT1
from repro.solve import (
    HypervolumeStagnation,
    MaxGenerations,
    Observer,
    RunProgress,
    Termination,
    solve,
)


class FrontSizeReached(Termination):
    """Stop once the non-dominated front holds at least ``target`` designs.

    ``progress.front`` is computed lazily and cached per generation, so a
    criterion reading it costs one front snapshot per generation at most.
    """

    def __init__(self, target: int) -> None:
        self.target = int(target)

    def should_stop(self, progress: RunProgress) -> bool:
        return len(progress.front) >= self.target


class HypervolumeLogger(Observer):
    """Observer logging generation, evaluations and front hypervolume.

    The reference point is fixed up front so the logged series is comparable
    (and monotone) across generations.
    """

    def __init__(self, reference, every: int = 5) -> None:
        self.reference = reference
        self.every = int(every)
        self.series: list[tuple[int, float]] = []

    def on_generation(self, event) -> None:
        value = hypervolume(event.front.F, self.reference)
        self.series.append((event.generation, value))
        if event.generation % self.every == 0:
            print(
                "generation %3d | evaluations %5d (+%d) | front %3d | hypervolume %.4f"
                % (
                    event.generation,
                    event.evaluations,
                    event.evaluations_delta,
                    len(event.front),
                    value,
                )
            )

    def on_migration(self, event) -> None:
        print("generation %3d | migration #%d" % (event.generation, event.migrations))


def main() -> None:
    problem = ZDT1(n_var=8)
    # ZDT1 objectives live in [0, 1] x [0, ~7]; (1.1, 7.0) dominates the
    # whole reachable front.
    logger = HypervolumeLogger(reference=[1.1, 7.0], every=5)

    # Stop on whichever fires first: a 60-generation front of 40+ designs,
    # hypervolume stagnation, or the hard 200-generation budget.
    termination = (
        (FrontSizeReached(40) & MaxGenerations(60))
        | HypervolumeStagnation(patience=15, tolerance=1e-4)
        | MaxGenerations(200)
    )

    result = solve(
        problem,
        algorithm="nsga2",
        seed=2011,
        population_size=24,
        termination=termination,
        observers=[logger],
    )

    print()
    print(
        "stopped at generation %d after %d evaluations; front holds %d designs"
        % (result.generations, result.evaluations, len(result.front))
    )
    first = logger.series[0][1]
    last = logger.series[-1][1]
    print("hypervolume improved %.4f -> %.4f over the run" % (first, last))


if __name__ == "__main__":
    main()
