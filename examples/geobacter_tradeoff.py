"""Geobacter sulfurreducens: trading biomass growth against electron output.

This is the paper's second case study (Sec. 3.2, Figure 4).  The script:

1. builds the synthetic 608-reaction genome-scale model,
2. inspects it with the constraint-based toolbox (FBA extremes, flux
   variability of the key reactions),
3. runs the multi-objective flux design (maximize electron production and
   biomass production, with the steady-state violation handled through
   constrained dominance and the ATP maintenance fixed at 0.45),
4. prints five representative trade-off points A–E and the violation
   reduction relative to a random initial guess.

Run with::

    python examples/geobacter_tradeoff.py
"""

from __future__ import annotations

import numpy as np

from repro.fba import flux_balance_analysis, flux_variability_analysis
from repro.geobacter import (
    BIOMASS_ID,
    ELECTRON_PRODUCTION_ID,
    GeobacterDesignProblem,
    build_geobacter_model,
    representative_points,
)
from repro.solve import solve


def main(population: int = 40, generations: int = 20) -> None:
    model = build_geobacter_model()
    print("model: %d reactions, %d metabolites" % (model.n_reactions, model.n_metabolites))

    # Constraint-based characterization (what the COBRA toolbox provides in
    # the paper's workflow).
    max_growth = flux_balance_analysis(model, BIOMASS_ID)
    max_electrons = flux_balance_analysis(model, ELECTRON_PRODUCTION_ID)
    print("FBA extremes: max growth %.3f /h (electron flux %.1f), "
          "max electron production %.1f mmol/gDW/h (growth %.3f)"
          % (
              max_growth.objective_value,
              max_growth[ELECTRON_PRODUCTION_ID],
              max_electrons.objective_value,
              max_electrons[BIOMASS_ID],
          ))
    variability = flux_variability_analysis(
        model, reactions=["EX_ac_e", ELECTRON_PRODUCTION_ID], objective=BIOMASS_ID,
        fraction_of_optimum=0.9,
    )
    for reaction_id, flux_range in variability.items():
        print("FVA @ 90%% optimum: %-8s [%.2f, %.2f]"
              % (reaction_id, flux_range.minimum, flux_range.maximum))

    # Multi-objective flux design.
    problem = GeobacterDesignProblem(model=model)
    rng = np.random.default_rng(7)
    result = solve(
        problem,
        "nsga2",
        population_size=population,
        seed=7,
        termination=generations,
        initial_population=problem.seeded_population(population, rng),
    )

    front = result.front
    production = problem.production_front(front.objective_matrix())
    violations = np.array(
        [ind.info.get("steady_state_violation", ind.constraint_violation) for ind in front]
    )
    print("\nnon-dominated designs found: %d" % len(front))
    for point in representative_points(production, violations, count=5):
        print("  %s: electron production %.2f, biomass production %.3f mmol/gDW/h"
              % (point.label, point.electron_production, point.biomass_production))

    initial = problem.random_guess_violation(seed=7)
    best = float(violations.min())
    print("\nsteady-state violation: random initial guess %.3g, best design %.3g "
          "(reduction factor 1/%.1f)" % (initial, best, initial / max(best, 1e-12)))


if __name__ == "__main__":
    main()
