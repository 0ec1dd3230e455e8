"""Integration tests: the canned paper experiments reproduce the right shapes.

These tests run the same code as the benchmark harness, at reduced budgets,
and assert on the *qualitative* claims of the paper (who wins, which way the
trade-offs slope), not on absolute numbers.
"""

import numpy as np
import pytest

from repro.core.experiments import (
    run_figure1,
    run_figure2,
    run_figure3,
    run_figure4,
    run_migration_ablation,
    run_table1,
    run_table2,
)
from repro.photosynthesis.conditions import condition


@pytest.fixture(scope="module")
def table1():
    return run_table1(population=16, generations=15, seed=3)


@pytest.fixture(scope="module")
def table2():
    return run_table2(
        population=16, generations=15, seed=3, robustness_trials=40, surface_points=6
    )


@pytest.fixture(scope="module")
def figure4():
    return run_figure4(population=24, generations=10, seed=3, n_seeds=8)


class TestTable1:
    def test_equal_evaluation_budgets(self, table1):
        assert table1.evaluations["MOEA-D"] >= table1.evaluations["PMO2"]
        assert table1.evaluations["MOEA-D"] <= table1.evaluations["PMO2"] * 1.5

    def test_pmo2_wins_on_coverage_as_in_the_paper(self, table1):
        # Paper Table 1: PMO2 achieves Rp = Gp = 1.0, MOEA/D 0.0.
        assert table1.rows["PMO2"]["Rp"] >= table1.rows["MOEA-D"]["Rp"]
        assert table1.rows["PMO2"]["Gp"] >= table1.rows["MOEA-D"]["Gp"]

    def test_pmo2_wins_on_hypervolume(self, table1):
        assert table1.winner("Vp") == "PMO2"

    def test_row_columns_complete(self, table1):
        for algorithm in ("PMO2", "MOEA-D"):
            assert set(table1.rows[algorithm]) == {"points", "Rp", "Gp", "Vp"}
            assert table1.rows[algorithm]["points"] >= 1


class TestTable2:
    def test_contains_the_four_paper_criteria(self, table2):
        criteria = {s.criterion for s in table2.selections}
        assert {"closest_to_ideal", "max_co2_uptake", "min_nitrogen", "max_yield"} <= criteria

    def test_selection_ordering_matches_paper_structure(self, table2):
        rows = {s.criterion: s for s in table2.selections}
        max_uptake = rows["max_co2_uptake"]
        min_nitrogen = rows["min_nitrogen"]
        closest = rows["closest_to_ideal"]
        # Max-uptake design fixes the most CO2 and spends the most nitrogen;
        # the min-nitrogen design is the cheapest and the least productive.
        assert max_uptake.objectives[0] >= closest.objectives[0] >= min_nitrogen.objectives[0]
        assert max_uptake.objectives[1] >= closest.objectives[1] >= min_nitrogen.objectives[1]

    def test_yields_are_valid_percentages(self, table2):
        for selection in table2.selections:
            assert 0.0 <= selection.yield_percentage <= 100.0

    def test_uptake_improves_over_natural_leaf(self, table2):
        rows = {s.criterion: s for s in table2.selections}
        assert rows["max_co2_uptake"].objectives[0] > table2.natural_uptake


class TestFigure1:
    @pytest.fixture(scope="class")
    def figure1(self):
        return run_figure1(population=16, generations=15, seed=3)

    def test_six_conditions_present(self, figure1):
        assert len(figure1.fronts) == 6

    def test_higher_ci_reaches_higher_uptake(self, figure1):
        assert figure1.max_uptake("future", "high") >= figure1.max_uptake("past", "high")

    def test_candidate_b_saves_nitrogen_at_natural_uptake(self, figure1):
        natural_uptake = figure1.natural_points[("present", "low")][0]
        assert figure1.candidate_b.uptake >= natural_uptake
        # Paper: B uses 47 % of the natural nitrogen; we accept any clear saving.
        assert figure1.candidate_b.nitrogen_fraction_of_natural < 0.85

    def test_candidate_a2_gains_uptake(self, figure1):
        natural_uptake = figure1.natural_points[("present", "low")][0]
        assert figure1.candidate_a2.uptake >= 1.10 * natural_uptake

    def test_fronts_are_in_natural_units(self, figure1):
        for front in figure1.fronts.values():
            assert np.all(front[:, 0] > -5.0)
            assert np.all(front[:, 1] > 0.0)

    def test_canonical_front_fields_recorded(self, figure1):
        # The artifact layer consumes these: decisions and objectives must
        # describe the same points.
        assert figure1.front_objectives is not None
        assert figure1.front_decisions is not None
        assert figure1.front_objectives.shape[0] == figure1.front_decisions.shape[0]

    def test_fallback_condition_subset_records_no_fabricated_decisions(self):
        # Without ("present", "low"), candidate mining falls back to
        # natural-leaf decision vectors; those do not produce the optimized
        # objectives and must not be recorded as the canonical front.
        result = run_figure1(
            population=8,
            generations=2,
            seed=0,
            conditions={("past", "low"): condition("past", "low")},
        )
        assert result.front_decisions is None
        assert result.front_objectives is not None


class TestFigure2:
    def test_profile_covers_all_23_enzymes(self):
        result = run_figure2(population=16, generations=15, seed=3)
        assert len(result.ratios) == 23
        assert result.candidate_nitrogen < result.natural_nitrogen
        assert all(ratio >= 0.0 for ratio in result.ratios.values())
        # Rubisco funds the redesign: its relative concentration drops.
        assert result.ratios["Rubisco"] < 1.0


class TestFigure3:
    def test_yields_and_extremes(self):
        result = run_figure3(
            population=16, generations=15, seed=3, surface_points=8, robustness_trials=40
        )
        assert len(result.yields) == len(result.uptake) == len(result.nitrogen)
        assert np.all((result.yields >= 0.0) & (result.yields <= 100.0))
        # Paper: the Pareto relative minima are unstable, and giving up a
        # little optimality buys a significantly more reliable design.  The
        # minimum-nitrogen extreme is the fragile corner of our surface; some
        # interior design must beat it clearly.
        order = np.argsort(result.uptake)
        min_nitrogen_extreme_yield = result.yields[order[0]]
        interior_best = result.yields[order[1:-1]].max()
        assert interior_best > min_nitrogen_extreme_yield


class TestFigure4:
    def test_five_labelled_points(self, figure4):
        labels = [p.label for p in figure4.points]
        assert labels == ["A", "B", "C", "D", "E"][: len(labels)]
        assert len(labels) >= 3

    def test_trade_off_slopes_downward(self, figure4):
        electrons = np.array([p.electron_production for p in figure4.points])
        biomass = np.array([p.biomass_production for p in figure4.points])
        assert np.all(np.diff(electrons) >= -1e-9)
        assert np.all(np.diff(biomass) <= 1e-9)

    def test_production_ranges_are_plausible(self, figure4):
        electrons = np.array([p.electron_production for p in figure4.points])
        biomass = np.array([p.biomass_production for p in figure4.points])
        assert electrons.max() > 60.0
        assert 0.0 <= biomass.max() < 1.0

    def test_violation_reduction(self, figure4):
        assert figure4.initial_violation > 1000.0
        assert figure4.best_violation < figure4.initial_violation
        assert figure4.reduction_factor < 1.0 / 20.0


class TestMigrationAblation:
    def test_migration_does_not_hurt(self):
        result = run_migration_ablation(population=12, generations=15, seed=3)
        assert result.hypervolume_with_migration > 0.0
        assert result.migration_helps
