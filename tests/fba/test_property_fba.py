"""Property-based tests for the FBA substrate on randomly generated pathways."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fba import (
    DEFAULT_BOUND,
    Metabolite,
    Reaction,
    StoichiometricModel,
    bound_violations,
    flux_balance_analysis,
    flux_variability_analysis,
)
from tests.oracles.fba import reference_bound_violation, reference_constraint_violation


def linear_pathway_model(uptake_limit, n_steps, yields):
    """EX -> m0 -> m1 -> ... -> m_{n-1} -> export, with per-step yields."""
    model = StoichiometricModel("chain")
    model.add_metabolites([Metabolite("m%d_c" % i) for i in range(n_steps)])
    model.add_reaction(Reaction("EX_in", {"m0_c": 1}, lower_bound=0.0, upper_bound=uptake_limit))
    for i in range(n_steps - 1):
        model.add_reaction(
            Reaction(
                "STEP%d" % i,
                {"m%d_c" % i: -1.0, "m%d_c" % (i + 1): float(yields[i])},
            )
        )
    model.add_reaction(Reaction("EX_out", {"m%d_c" % (n_steps - 1): -1}))
    model.set_objective("EX_out")
    return model


chain_parameters = st.tuples(
    st.floats(min_value=0.5, max_value=50.0),
    st.integers(min_value=2, max_value=6),
    st.lists(st.floats(min_value=0.2, max_value=2.0), min_size=5, max_size=5),
)


class TestLinearPathwayProperties:
    @given(chain_parameters)
    @example((32.0, 6, [2.0] * 5))
    @settings(max_examples=30, deadline=None)
    def test_fba_matches_analytical_yield(self, params):
        uptake_limit, n_steps, yields = params
        model = linear_pathway_model(uptake_limit, n_steps, yields)
        solution = flux_balance_analysis(model)
        # Step k and the export carry uptake * prod(yields[:k]); each of them
        # is capped at DEFAULT_BOUND, so the optimum's uptake is the smallest
        # of the uptake limit and those caps, not the uptake limit alone.
        uptake = min(
            [uptake_limit]
            + [DEFAULT_BOUND / float(np.prod(yields[:k])) for k in range(n_steps)]
        )
        expected = uptake * float(np.prod(yields[: n_steps - 1]))
        assert solution.objective_value == pytest.approx(expected, rel=1e-6, abs=1e-9)

    @given(chain_parameters)
    @settings(max_examples=30, deadline=None)
    def test_fba_solution_is_steady_state_and_within_bounds(self, params):
        uptake_limit, n_steps, yields = params
        model = linear_pathway_model(uptake_limit, n_steps, yields)
        solution = flux_balance_analysis(model)
        fluxes = solution.flux_vector(model)
        assert reference_constraint_violation(model, fluxes) == pytest.approx(0.0, abs=1e-6)
        assert reference_bound_violation(model, fluxes) == pytest.approx(0.0, abs=1e-6)
        assert bound_violations(model, fluxes)[0] == pytest.approx(0.0, abs=1e-6)

    @given(chain_parameters)
    @settings(max_examples=15, deadline=None)
    def test_fva_interval_contains_the_fba_flux(self, params):
        uptake_limit, n_steps, yields = params
        model = linear_pathway_model(uptake_limit, n_steps, yields)
        solution = flux_balance_analysis(model)
        ranges = flux_variability_analysis(model, reactions=["EX_in"], fraction_of_optimum=1.0)
        interval = ranges["EX_in"]
        assert interval.minimum - 1e-6 <= solution["EX_in"] <= interval.maximum + 1e-6

    @given(chain_parameters, st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=15, deadline=None)
    def test_relaxing_optimality_never_shrinks_fva_intervals(self, params, fraction):
        uptake_limit, n_steps, yields = params
        model = linear_pathway_model(uptake_limit, n_steps, yields)
        strict = flux_variability_analysis(model, reactions=["EX_in"], fraction_of_optimum=1.0)
        relaxed = flux_variability_analysis(
            model, reactions=["EX_in"], fraction_of_optimum=fraction
        )
        relaxed_span = relaxed["EX_in"].maximum - relaxed["EX_in"].minimum
        strict_span = strict["EX_in"].maximum - strict["EX_in"].minimum
        assert relaxed_span >= strict_span - 1e-9
