"""Re-engineering the C3 leaf: CO2 uptake versus protein nitrogen.

This is the paper's main case study (Sec. 3.1, Figures 1–2).  The script:

1. builds the photosynthesis design problem at the "present CO2, low export"
   condition,
2. optimizes the 23 enzyme activities with PMO2,
3. extracts the paper's named candidates — B (natural uptake at a fraction of
   the nitrogen) and A2 (+10 % uptake at about half the nitrogen) — and
   prints the Figure 2 style enzyme-ratio profile of candidate B,
4. cross-checks candidate B on the full kinetic ODE model.

Run with::

    python examples/photosynthesis_redesign.py

Runtime is a couple of minutes at the default budget; lower the population or
generations for a quicker look.
"""

from __future__ import annotations

from repro.moo import PMO2Config
from repro.photosynthesis import (
    CalvinCycleModel,
    PhotosynthesisProblem,
    candidate_a2,
    candidate_b,
    condition,
    enzyme_ratio_profile,
)
from repro.solve import solve


def main(population: int = 32, generations: int = 60) -> None:
    environment = condition("present", "low")
    problem = PhotosynthesisProblem(environment)
    natural_uptake, natural_nitrogen = problem.natural_point()
    print("natural leaf: uptake %.2f umol/m2/s, nitrogen %.0f mg/l"
          % (natural_uptake, natural_nitrogen))

    config = PMO2Config(
        n_islands=2,
        island_population_size=population,
        migration_interval=max(5, generations // 4),
        migration_rate=0.5,
    )
    result = solve(problem, "pmo2", config=config, seed=2011, termination=generations)
    front = problem.reported_front(result.front_objectives())
    decisions = result.front_decisions()
    print("PMO2: %d evaluations, %d Pareto-optimal enzyme partitions"
          % (result.evaluations, front.shape[0]))
    print("uptake range on the front: %.2f .. %.2f umol/m2/s"
          % (front[:, 0].min(), front[:, 0].max()))

    # The paper's named candidates.
    b = candidate_b(front, decisions, natural_uptake)
    a2 = candidate_a2(front, decisions, natural_uptake)
    print("\ncandidate B : uptake %.2f, nitrogen %.0f (%.0f %% of natural)"
          % (b.uptake, b.nitrogen, 100 * b.nitrogen_fraction_of_natural))
    print("candidate A2: uptake %.2f, nitrogen %.0f (%.0f %% of natural)"
          % (a2.uptake, a2.nitrogen, 100 * a2.nitrogen_fraction_of_natural))

    print("\nFigure 2 profile (candidate B / natural leaf):")
    for name, ratio in enzyme_ratio_profile(b.activities).items():
        bar = "#" * max(1, int(ratio * 20))
        print("  %-22s %5.2f %s" % (name, ratio, bar))

    # Cross-validation of candidate B on the detailed kinetic ODE model.
    ode_model = CalvinCycleModel(environment)
    ode_natural = ode_model.co2_uptake()
    ode_candidate = ode_model.co2_uptake(b.activities)
    print("\nODE cross-check: natural %.2f vs candidate B %.2f umol/m2/s "
          "(%.0f %% of natural uptake retained)"
          % (ode_natural, ode_candidate, 100 * ode_candidate / ode_natural))


if __name__ == "__main__":
    main()
