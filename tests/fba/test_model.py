"""Tests for the constraint-based model substrate."""

import numpy as np
import pytest

from repro.exceptions import ModelConsistencyError
from repro.fba import Metabolite, Reaction, StoichiometricModel
from tests.oracles.fba import knock_out


def toy_model():
    """A -> B -> (export), with an uptake exchange for A."""
    model = StoichiometricModel("toy")
    model.add_metabolites([Metabolite("a_c"), Metabolite("b_c")])
    model.add_reactions(
        [
            Reaction("EX_a", {"a_c": 1}, lower_bound=0.0, upper_bound=10.0),
            Reaction("A2B", {"a_c": -1, "b_c": 1}, lower_bound=0.0, upper_bound=1000.0),
            Reaction("EX_b", {"b_c": -1}, lower_bound=0.0, upper_bound=1000.0),
        ]
    )
    model.set_objective("EX_b")
    return model


class TestConstruction:
    def test_duplicate_metabolite_rejected(self):
        model = StoichiometricModel()
        model.add_metabolite(Metabolite("a_c"))
        with pytest.raises(ModelConsistencyError):
            model.add_metabolite(Metabolite("a_c"))

    def test_duplicate_reaction_rejected(self):
        model = toy_model()
        with pytest.raises(ModelConsistencyError):
            model.add_reaction(Reaction("A2B", {"a_c": -1, "b_c": 1}))

    def test_unknown_metabolite_rejected_without_flag(self):
        model = StoichiometricModel()
        with pytest.raises(ModelConsistencyError):
            model.add_reaction(Reaction("r", {"unknown_c": -1, "x_c": 1}))

    def test_allow_new_metabolites_creates_them(self):
        model = StoichiometricModel()
        model.add_reaction(
            Reaction("r", {"new_c": -1, "other_e": 1}), allow_new_metabolites=True
        )
        assert model.get_metabolite("new_c").compartment == "c"
        assert model.get_metabolite("other_e").compartment == "e"

    def test_reaction_bound_sanity(self):
        with pytest.raises(Exception):
            Reaction("bad", {"a_c": -1}, lower_bound=5.0, upper_bound=1.0)

    def test_validate_passes_and_detects_orphans(self):
        model = toy_model()
        model.validate()
        model.add_metabolite(Metabolite("orphan_c"))
        with pytest.raises(ModelConsistencyError):
            model.validate()


class TestNumericalViews:
    def test_stoichiometric_matrix(self):
        model = toy_model()
        matrix = model.stoichiometric_matrix()
        assert matrix.shape == (2, 3)
        a_row = model.metabolite_ids.index("a_c")
        assert matrix[a_row, 0] == 1.0
        assert matrix[a_row, 1] == -1.0

    def test_bounds_vectors(self):
        lower, upper = toy_model().bounds()
        assert lower.shape == (3,)
        assert upper[0] == 10.0

    def test_set_bounds_and_fix_flux(self):
        model = toy_model()
        model.set_bounds("EX_a", 2.0, 5.0)
        assert model.get_reaction("EX_a").lower_bound == 2.0
        model.fix_flux("EX_a", 3.0)
        assert model.get_reaction("EX_a").lower_bound == 3.0
        assert model.get_reaction("EX_a").upper_bound == 3.0
        with pytest.raises(ModelConsistencyError):
            model.set_bounds("EX_a", 5.0, 1.0)

    def test_reaction_index_and_errors(self):
        model = toy_model()
        assert model.reaction_index("A2B") == 1
        with pytest.raises(KeyError):
            model.reaction_index("missing")
        with pytest.raises(KeyError):
            model.set_objective("missing")

    def test_exchanges_detected(self):
        exchange_ids = {r.identifier for r in toy_model().exchanges()}
        assert exchange_ids == {"EX_a", "EX_b"}


class TestViolation:
    def test_steady_state_flux_has_zero_violation(self):
        model = toy_model()
        fluxes = np.array([5.0, 5.0, 5.0])
        assert model.constraint_violation(fluxes) == pytest.approx(0.0)

    def test_unbalanced_flux_is_positive(self):
        model = toy_model()
        fluxes = np.array([5.0, 1.0, 0.0])
        assert model.constraint_violation(fluxes) > 0.0

    def test_norms(self):
        model = toy_model()
        fluxes = np.array([2.0, 0.0, 0.0])
        l1 = model.constraint_violation(fluxes, norm="l1")
        l2 = model.constraint_violation(fluxes, norm="l2")
        linf = model.constraint_violation(fluxes, norm="linf")
        assert l1 >= l2 >= linf > 0.0
        with pytest.raises(ModelConsistencyError):
            model.constraint_violation(fluxes, norm="l0")

    def test_bound_violation(self):
        model = toy_model()
        fluxes = np.array([20.0, 5.0, 5.0])
        assert model.bound_violation(fluxes) == pytest.approx(10.0)
        assert model.bound_violation(np.array([5.0, 5.0, 5.0])) == 0.0

    def test_wrong_flux_dimension(self):
        with pytest.raises(ModelConsistencyError):
            toy_model().constraint_violation(np.ones(5))


class TestCopyAndKnockout:
    def test_copy_is_independent(self):
        model = toy_model()
        clone = model.copy()
        knock_out(clone.get_reaction("A2B"))
        assert model.get_reaction("A2B").upper_bound == 1000.0
        assert clone.get_reaction("A2B").upper_bound == 0.0
        assert clone.objective == "EX_b"

    def test_knock_out_zeroes_bounds(self):
        reaction = Reaction("r", {"a_c": -1}, lower_bound=-10.0, upper_bound=10.0)
        knock_out(reaction)
        assert reaction.lower_bound == 0.0
        assert reaction.upper_bound == 0.0

    def test_reaction_str_and_reversibility(self):
        reaction = Reaction("r", {"a_c": -1, "b_c": 1}, lower_bound=-5.0)
        assert reaction.is_reversible
        assert "<=>" in str(reaction)
