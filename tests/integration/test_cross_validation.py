"""Cross-validation between the fast steady-state model and the ODE model.

DESIGN.md commits to checking that the fast enzyme-limited evaluator used
inside the optimizer and the detailed kinetic ODE model agree on the
qualitative behaviour of designs (ordering and rough magnitude), which is what
justifies optimizing on the fast model.
"""

import numpy as np
import pytest

from repro.photosynthesis.conditions import condition
from repro.photosynthesis.enzymes import enzyme_index, natural_activities
from repro.photosynthesis.steady_state import EnzymeLimitedModel
from tests.oracles.ode.calvin import CalvinCycleModel


@pytest.fixture(scope="module")
def models():
    env = condition("present", "low")
    return EnzymeLimitedModel(env), CalvinCycleModel(env)


class TestModelAgreement:
    def test_natural_leaf_same_order_of_magnitude(self, models):
        fast, ode = models
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
