"""Tests for the kinetic rate laws."""

import pytest

from repro.exceptions import ConfigurationError
from tests.oracles.ode.rate_laws import (
    ConstantFlux,
    MassAction,
    MichaelisMenten,
    MultiSubstrateMichaelisMenten,
    RapidEquilibrium,
    ReversibleMichaelisMenten,
)


class TestMichaelisMenten:
    def test_half_saturation_at_km(self):
        law = MichaelisMenten("S", km=2.0)
        assert law.rate({"S": 2.0}, vmax=10.0) == pytest.approx(5.0)

    def test_saturates_at_vmax(self):
        law = MichaelisMenten("S", km=0.1)
        assert law.rate({"S": 1e6}, vmax=10.0) == pytest.approx(10.0, rel=1e-3)

    def test_zero_substrate_gives_zero_rate(self):
        law = MichaelisMenten("S", km=1.0)
        assert law.rate({"S": 0.0}, vmax=10.0) == 0.0

    def test_competitive_inhibitor_slows_the_rate(self):
        plain = MichaelisMenten("S", km=1.0)
        inhibited = MichaelisMenten("S", km=1.0, inhibitors={"I": 0.5})
        concentrations = {"S": 1.0, "I": 1.0}
        assert inhibited.rate(concentrations, 10.0) < plain.rate(concentrations, 10.0)

    def test_activator_scales_hyperbolically(self):
        law = MichaelisMenten("S", km=1.0, activators={"A": 1.0})
        low = law.rate({"S": 10.0, "A": 0.1}, 10.0)
        high = law.rate({"S": 10.0, "A": 100.0}, 10.0)
        assert low < high <= 10.0

    def test_invalid_constants_rejected(self):
        with pytest.raises(ConfigurationError):
            MichaelisMenten("S", km=0.0)
        with pytest.raises(ConfigurationError):
            MichaelisMenten("S", km=1.0, inhibitors={"I": 0.0})

    def test_required_species_listed(self):
        law = MichaelisMenten("S", km=1.0, inhibitors={"I": 1.0}, activators={"A": 1.0})
        assert set(law.required_species()) == {"S", "I", "A"}


class TestMultiSubstrate:
    def test_product_of_saturations(self):
        law = MultiSubstrateMichaelisMenten(substrates={"A": 1.0, "B": 1.0})
        assert law.rate({"A": 1.0, "B": 1.0}, 8.0) == pytest.approx(2.0)

    def test_any_missing_substrate_blocks_the_rate(self):
        law = MultiSubstrateMichaelisMenten(substrates={"A": 1.0, "B": 1.0})
        assert law.rate({"A": 0.0, "B": 5.0}, 8.0) == 0.0

    def test_inhibition_divides_the_rate(self):
        law = MultiSubstrateMichaelisMenten(substrates={"A": 1.0}, inhibitors={"I": 1.0})
        assert law.rate({"A": 1e9, "I": 1.0}, 10.0) == pytest.approx(5.0, rel=1e-3)

    def test_requires_at_least_one_substrate(self):
        with pytest.raises(ConfigurationError):
            MultiSubstrateMichaelisMenten(substrates={})


class TestReversibleMichaelisMenten:
    def test_zero_rate_at_equilibrium(self):
        law = ReversibleMichaelisMenten("S", "P", km_substrate=1.0, km_product=1.0, keq=2.0)
        assert law.rate({"S": 1.0, "P": 2.0}, 10.0) == pytest.approx(0.0)

    def test_forward_below_equilibrium_backward_above(self):
        law = ReversibleMichaelisMenten("S", "P", km_substrate=1.0, km_product=1.0, keq=2.0)
        assert law.rate({"S": 1.0, "P": 0.5}, 10.0) > 0.0
        assert law.rate({"S": 1.0, "P": 5.0}, 10.0) < 0.0

    def test_invalid_constants(self):
        with pytest.raises(ConfigurationError):
            ReversibleMichaelisMenten("S", "P", km_substrate=0.0, km_product=1.0)
        with pytest.raises(ConfigurationError):
            ReversibleMichaelisMenten("S", "P", km_substrate=1.0, km_product=1.0, keq=0.0)


class TestRapidEquilibrium:
    def test_relaxes_towards_keq(self):
        law = RapidEquilibrium("A", "B", keq=3.0)
        assert law.rate({"A": 1.0, "B": 3.0}, 1.0) == pytest.approx(0.0)
        assert law.rate({"A": 1.0, "B": 1.0}, 1.0) > 0.0
        assert law.rate({"A": 1.0, "B": 10.0}, 1.0) < 0.0

    def test_rate_is_independent_of_vmax(self):
        law = RapidEquilibrium("A", "B", keq=1.0)
        state = {"A": 2.0, "B": 1.0}
        assert law.rate(state, 1.0) == law.rate(state, 100.0)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            RapidEquilibrium("A", "B", keq=-1.0)
        with pytest.raises(ConfigurationError):
            RapidEquilibrium("A", "B", relaxation_rate=0.0)


class TestMassAction:
    def test_irreversible_forward_rate(self):
        law = MassAction(substrates=["A", "B"], forward_constant=2.0)
        assert law.rate({"A": 3.0, "B": 4.0}, 1.0) == pytest.approx(24.0)

    def test_reversible_net_rate(self):
        law = MassAction(substrates=["A"], products=["B"], forward_constant=1.0, reverse_constant=1.0)
        assert law.rate({"A": 2.0, "B": 1.0}, 1.0) == pytest.approx(1.0)

    def test_vmax_scales_both_directions(self):
        law = MassAction(substrates=["A"], products=["B"], forward_constant=1.0, reverse_constant=0.5)
        assert law.rate({"A": 1.0, "B": 1.0}, 2.0) == pytest.approx(1.0)


class TestConstantFlux:
    def test_plain_constant(self):
        law = ConstantFlux(3.0)
        assert law.rate({}, vmax=99.0) == pytest.approx(3.0)

    def test_carrier_saturation(self):
        law = ConstantFlux(3.0, carrier="T", km=1.0)
        assert law.rate({"T": 1.0}, 0.0) == pytest.approx(1.5)
        assert law.rate({"T": 0.0}, 0.0) == 0.0
        assert law.rate({"T": 1e6}, 0.0) == pytest.approx(3.0, rel=1e-3)
