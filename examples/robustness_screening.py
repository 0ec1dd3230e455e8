"""Robustness screening of Pareto-optimal leaf designs (Table 2 / Figure 3).

The script runs the full design pipeline of the paper on the photosynthesis
problem at the reference condition (Ci = 270, export = 3):

1. PMO2 optimization of uptake versus nitrogen,
2. automatic trade-off selection (closest-to-ideal and the shadow minima),
3. global Monte-Carlo robustness yield Γ (ε = 5 %, 10 % perturbations) of the
   selections and of designs sampled equally spaced along the front,
4. a local (one-enzyme-at-a-time) robustness analysis of the closest-to-ideal
   design, which identifies the enzymes whose synthesis must be controlled
   most tightly.

Run with::

    python examples/robustness_screening.py
"""

from __future__ import annotations

from repro.core import RobustPathwayDesigner
from repro.moo import PMO2Config, RobustnessSettings, local_yields
from repro.photosynthesis import ENZYME_NAMES, REFERENCE_CONDITION, PhotosynthesisProblem


def main(population: int = 28, generations: int = 40) -> None:
    problem = PhotosynthesisProblem(REFERENCE_CONDITION)
    designer = RobustPathwayDesigner(
        problem,
        PMO2Config(
            n_islands=2,
            island_population_size=population,
            migration_interval=max(5, generations // 4),
        ),
        seed=2011,
    )
    settings = RobustnessSettings(epsilon=0.05, magnitude=0.10, global_trials=300,
                                  local_trials=100, seed=2011)
    report = designer.design(
        generations=generations,
        property_objective="co2_uptake",
        robustness_settings=settings,
        surface_points=15,
    )

    print("Table 2 style selections:")
    print("  %-18s %-12s %-12s %s" % ("selection", "CO2 uptake", "nitrogen", "yield %"))
    for selection in report.selections:
        print("  %-18s %-12.3f %-12.0f %.1f"
              % (
                  selection.criterion,
                  selection.objectives[0],
                  selection.objectives[1],
                  selection.yield_percentage,
              ))

    print("\nFigure 3 style surface (yield of equally spaced front designs):")
    print("  " + " ".join("%5.1f" % value for value in report.front_yields))

    # Local analysis of the closest-to-ideal design: which single enzyme
    # perturbations threaten the designed uptake the most?
    chosen = report.selection("closest_to_ideal")
    per_enzyme = local_yields(
        chosen.decision,
        problem.uptake_matrix,
        settings=settings,
        variable_names=list(ENZYME_NAMES),
        clip_lower=problem.lower_bounds,
        clip_upper=problem.upper_bounds,
    )
    fragile = sorted(per_enzyme.items(), key=lambda item: item[1].yield_fraction)[:5]
    print("\nmost fragile enzymes of the closest-to-ideal design (local yield %):")
    for name, enzyme_report in fragile:
        print("  %-22s %.1f" % (name, enzyme_report.yield_percentage))


if __name__ == "__main__":
    main()
