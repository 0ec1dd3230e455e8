"""Cross-validation between the fast steady-state model and the ODE model.

DESIGN.md commits to checking that the fast enzyme-limited evaluator used
inside the optimizer and the detailed kinetic ODE model agree on the
qualitative behaviour of designs (ordering and rough magnitude), which is what
justifies optimizing on the fast model.
"""

import numpy as np
import pytest

from repro.photosynthesis.conditions import PAPER_CONDITIONS, condition
from repro.photosynthesis.enzymes import enzyme_index, natural_activities
from repro.photosynthesis.steady_state import EnzymeLimitedModel
from tests.oracles.ode.calvin import CalvinCycleModel


@pytest.fixture(scope="module")
def models():
    env = condition("present", "low")
    return EnzymeLimitedModel(env), CalvinCycleModel(env)


#: At high triose export and the past or present CO2 level the ODE model's
#: natural leaf collapses: carboxylation relaxes to about 1e-11 mM/s and its
#: uptake reads -1.0 (dark respiration), against 12.96 and 15.63 from the
#: enzyme-limited model.
_ODE_COLLAPSES = pytest.mark.xfail(
    strict=True, reason="the ODE oracle's natural leaf collapses to uptake -1.0 here"
)


class TestModelAgreement:
    @pytest.mark.parametrize(
        "era, export",
        [
            pytest.param(
                *key,
                id="-".join(key),
                marks=[_ODE_COLLAPSES] if key in {("past", "high"), ("present", "high")} else [],
            )
            for key in PAPER_CONDITIONS
        ],
    )
    def test_natural_leaf_same_order_of_magnitude(self, era, export):
        env = condition(era, export)
        fast, ode = EnzymeLimitedModel(env), CalvinCycleModel(env)
        fast_uptake = fast.natural_uptake()
        ode_uptake = ode.co2_uptake()
        assert fast_uptake > 0.0 and ode_uptake > 0.0
        assert abs(fast_uptake - ode_uptake) / fast_uptake < 0.5

    def test_design_ordering_is_preserved(self, models):
        fast, ode = models
        natural = natural_activities()
        designs = [natural * 0.4, natural, natural * 1.8]
        fast_values = [fast.co2_uptake(d) for d in designs]
        ode_values = [ode.co2_uptake(d) for d in designs]
        assert np.argsort(fast_values).tolist() == np.argsort(ode_values).tolist()

    def test_rubisco_knockdown_hurts_in_both_models(self, models):
        fast, ode = models
        crippled = natural_activities()
        crippled[enzyme_index("rubisco")] *= 0.15
        assert fast.co2_uptake(crippled) < fast.natural_uptake()
        assert ode.co2_uptake(crippled) < ode.co2_uptake()

    def test_candidate_like_design_keeps_most_uptake_in_ode_model(self, models):
        """A nitrogen-saving design built on the fast model survives ODE checking.

        The design trims the over-provisioned enzymes (Rubisco and the excess
        Calvin-cycle capacity) the way candidate B does; the ODE model should
        confirm that most of the natural uptake is retained.
        """
        fast, ode = models
        natural = natural_activities()
        trimmed = natural.copy()
        trimmed[enzyme_index("rubisco")] *= 0.45
        for key in ("pga_kinase", "gapdh", "prk", "fbp_aldolase", "fbpase", "transketolase"):
            trimmed[enzyme_index(key)] *= 0.6
        assert fast.co2_uptake(trimmed) > 0.75 * fast.natural_uptake()
        assert ode.co2_uptake(trimmed) > 0.55 * ode.co2_uptake()
