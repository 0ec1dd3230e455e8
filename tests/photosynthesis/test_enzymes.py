"""Tests for the enzyme catalogue and nitrogen accounting."""

import numpy as np
import pytest

from repro.photosynthesis.enzymes import (
    ENZYME_NAMES,
    ENZYMES,
    Enzyme,
    enzyme_index,
    natural_activities,
)
from repro.photosynthesis.nitrogen import (
    NATURAL_NITROGEN,
    nitrogen_cost_vector,
    total_nitrogen,
)
from repro.exceptions import ConfigurationError, DimensionError


class TestCatalogue:
    def test_exactly_23_enzymes_as_in_the_paper(self):
        assert len(ENZYMES) == 23
        assert len(ENZYME_NAMES) == 23

    def test_figure2_enzymes_are_present(self):
        for name in ("Rubisco", "SBPase", "ADPGPP", "GDC", "SPS", "F26BPase", "PRK"):
            assert name in ENZYME_NAMES

    def test_keys_and_names_resolve_to_same_index(self):
        assert enzyme_index("Rubisco") == enzyme_index("rubisco") == 0
        assert enzyme_index("SBPase") == enzyme_index("sbpase")

    def test_unknown_enzyme_raises(self):
        with pytest.raises(KeyError):
            enzyme_index("nitrogenase")

    def test_every_pathway_group_is_populated(self):
        pathways = {enzyme.pathway for enzyme in ENZYMES}
        assert pathways == {"calvin", "photorespiration", "starch", "sucrose"}

    def test_natural_activities_positive(self):
        activities = natural_activities()
        assert activities.shape == (23,)
        assert np.all(activities > 0.0)

    def test_rubisco_is_the_most_nitrogen_expensive_pool(self):
        by_enzyme = nitrogen_cost_vector() * natural_activities()
        fractions = by_enzyme / by_enzyme.sum()
        assert ENZYMES[int(np.argmax(fractions))].name == "Rubisco"
        assert fractions.max() > 0.3

    def test_invalid_enzyme_definitions_rejected(self):
        with pytest.raises(ConfigurationError):
            Enzyme("X", "x", -1.0, 1.0, 1.0, "calvin", 1.0)
        with pytest.raises(ConfigurationError):
            Enzyme("X", "x", 1.0, 1.0, 1.0, "unknown-pathway", 1.0)
        with pytest.raises(ConfigurationError):
            Enzyme("X", "x", 1.0, 1.0, 0.0, "calvin", 1.0)

    def test_nitrogen_cost_per_activity_formula(self):
        enzyme = ENZYMES[0]
        assert enzyme.nitrogen_cost_per_activity == pytest.approx(
            enzyme.molecular_weight / enzyme.catalytic_number
        )


class TestNitrogenAccounting:
    def test_natural_leaf_matches_paper_total(self):
        assert total_nitrogen(natural_activities()) == pytest.approx(NATURAL_NITROGEN)

    def test_nitrogen_is_linear_in_activities(self):
        natural = natural_activities()
        assert total_nitrogen(natural * 2.0) == pytest.approx(2.0 * NATURAL_NITROGEN)
        assert total_nitrogen(natural * 0.0) == pytest.approx(0.0)

    def test_cost_vector_follows_mw_over_kcat(self):
        costs = nitrogen_cost_vector()
        raw = np.array([e.molecular_weight / e.catalytic_number for e in ENZYMES])
        ratio = costs / raw
        assert np.allclose(ratio, ratio[0])

    def test_dimension_checks(self):
        with pytest.raises(DimensionError):
            total_nitrogen(np.ones(5))
