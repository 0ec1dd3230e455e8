"""Tests for FBA and flux variability analysis."""

import numpy as np
import pytest

from repro.exceptions import InfeasibleProblemError
from repro.fba import (
    Metabolite,
    Reaction,
    StoichiometricModel,
    flux_balance_analysis,
    flux_variability_analysis,
    optimize_combination,
)


def branched_model():
    """Substrate S splits into two products P and Q with different yields.

    EX_s supplies at most 10 units of S; P-production consumes 1 S per P while
    Q-production consumes 2 S per Q, so FBA prefers P when maximizing product.
    """
    model = StoichiometricModel("branched")
    model.add_metabolites([Metabolite("s_c"), Metabolite("p_c"), Metabolite("q_c")])
    model.add_reactions(
        [
            Reaction("EX_s", {"s_c": 1}, lower_bound=0.0, upper_bound=10.0),
            Reaction("S2P", {"s_c": -1, "p_c": 1}),
            Reaction("S2Q", {"s_c": -2, "q_c": 1}),
            Reaction("EX_p", {"p_c": -1}),
            Reaction("EX_q", {"q_c": -1}),
        ]
    )
    return model


class TestFBA:
    def test_maximizes_product_export(self):
        model = branched_model()
        solution = flux_balance_analysis(model, "EX_p")
        assert solution.objective_value == pytest.approx(10.0)
        assert solution["EX_s"] == pytest.approx(10.0)
        assert solution["S2Q"] == pytest.approx(0.0)

    def test_lower_yield_branch(self):
        solution = flux_balance_analysis(branched_model(), "EX_q")
        assert solution.objective_value == pytest.approx(5.0)

    def test_model_objective_used_by_default(self):
        model = branched_model()
        model.set_objective("EX_p")
        assert flux_balance_analysis(model).objective_value == pytest.approx(10.0)

    def test_missing_objective_raises(self):
        with pytest.raises(InfeasibleProblemError):
            flux_balance_analysis(branched_model())

    def test_minimization_direction(self):
        solution = flux_balance_analysis(branched_model(), "EX_p", maximize=False)
        assert solution.objective_value == pytest.approx(0.0)

    def test_infeasible_bounds_detected(self):
        model = branched_model()
        # Force production of P while forbidding substrate uptake.
        model.set_bounds("EX_p", 5.0, 10.0)
        model.set_bounds("EX_s", 0.0, 0.0)
        with pytest.raises(InfeasibleProblemError):
            flux_balance_analysis(model, "EX_p")

    def test_flux_vector_order(self):
        model = branched_model()
        solution = flux_balance_analysis(model, "EX_p")
        vector = solution.flux_vector(model)
        assert vector.shape == (model.n_reactions,)
        assert vector[model.reaction_index("EX_p")] == pytest.approx(10.0)

    def test_steady_state_constraint_satisfied(self):
        model = branched_model()
        solution = flux_balance_analysis(model, "EX_p")
        assert model.constraint_violation(solution.flux_vector(model)) == pytest.approx(
            0.0, abs=1e-6
        )


class TestWeightedCombination:
    def test_pure_weights_match_single_objective(self):
        model = branched_model()
        combo = optimize_combination(model, {"EX_p": 1.0})
        assert combo.objective_value == pytest.approx(10.0)

    def test_mixed_weights(self):
        model = branched_model()
        combo = optimize_combination(model, {"EX_p": 1.0, "EX_q": 3.0})
        # Producing Q is worth 3 per unit but costs twice the substrate, so Q
        # still wins: 5 Q x 3 = 15 > 10 P x 1.
        assert combo.objective_value == pytest.approx(15.0)
        assert combo["EX_q"] == pytest.approx(5.0)


class TestFVA:
    def test_ranges_at_full_optimality(self):
        model = branched_model()
        ranges = flux_variability_analysis(model, objective="EX_p")
        assert ranges["EX_p"].minimum == pytest.approx(10.0)
        assert ranges["EX_p"].maximum == pytest.approx(10.0)
        assert ranges["S2Q"].maximum == pytest.approx(0.0)

    def test_relaxed_optimality_widens_ranges(self):
        model = branched_model()
        strict = flux_variability_analysis(model, objective="EX_p", fraction_of_optimum=1.0)
        relaxed = flux_variability_analysis(model, objective="EX_p", fraction_of_optimum=0.5)
        assert relaxed["S2Q"].maximum > strict["S2Q"].maximum

    def test_subset_of_reactions(self):
        model = branched_model()
        ranges = flux_variability_analysis(model, reactions=["EX_s"], objective="EX_p")
        assert set(ranges) == {"EX_s"}

    def test_invalid_fraction(self):
        with pytest.raises(InfeasibleProblemError):
            flux_variability_analysis(branched_model(), fraction_of_optimum=2.0)

    def test_flux_range_helpers(self):
        model = branched_model()
        ranges = flux_variability_analysis(model, objective="EX_p")
        ex_s = ranges["EX_s"]
        assert ex_s.span == pytest.approx(ex_s.maximum - ex_s.minimum)
        assert ex_s.contains(ex_s.minimum)
        assert not ex_s.contains(ex_s.maximum + 1.0)
