"""Tests for the robust pathway designer pipeline."""

import numpy as np
import pytest

from repro.core.designer import RobustPathwayDesigner
from repro.moo.pmo2 import PMO2Config
from repro.moo.robustness import RobustnessSettings
from repro.moo.testproblems import Schaffer
from repro.photosynthesis.conditions import condition
from repro.photosynthesis.problem import PhotosynthesisProblem


def small_config():
    return PMO2Config(n_islands=2, island_population_size=12, migration_interval=5)


@pytest.fixture(scope="module")
def photosynthesis_report():
    problem = PhotosynthesisProblem(condition("present", "low"))
    designer = RobustPathwayDesigner(problem, small_config(), seed=0)
    settings = RobustnessSettings(epsilon=0.05, global_trials=40, seed=0)
    return problem, designer.design(
        generations=20,
        property_objective="co2_uptake",
        robustness_settings=settings,
        surface_points=6,
    )


class TestPipelineOnSyntheticProblem:
    def test_optimize_and_mine(self):
        designer = RobustPathwayDesigner(Schaffer(), small_config(), seed=1)
        result = designer.optimize(generations=10)
        selections = designer.mine(result)
        criteria = {s.criterion for s in selections}
        assert "closest_to_ideal" in criteria
        assert "min_f1" in criteria
        assert "min_f2" in criteria

    def test_design_without_robustness(self):
        designer = RobustPathwayDesigner(Schaffer(), small_config(), seed=1)
        report = designer.design(generations=5)
        assert report.front_objectives.shape[0] == report.front_decisions.shape[0]
        assert all(s.yield_percentage is None for s in report.selections)


class TestPipelineOnPhotosynthesis:
    def test_report_contains_table2_selection_criteria(self, photosynthesis_report):
        _, report = photosynthesis_report
        criteria = set(report.criteria())
        assert "closest_to_ideal" in criteria
        assert "max_co2_uptake" in criteria
        assert "min_nitrogen" in criteria
        assert "max_yield" in criteria

    def test_selected_objectives_reported_in_natural_units(self, photosynthesis_report):
        problem, report = photosynthesis_report
        max_uptake = report.selection("max_co2_uptake")
        min_nitrogen = report.selection("min_nitrogen")
        assert max_uptake.objectives[0] > 0.0
        assert max_uptake.objectives[0] >= min_nitrogen.objectives[0]
        assert min_nitrogen.objectives[1] <= max_uptake.objectives[1]

    def test_yields_are_percentages(self, photosynthesis_report):
        _, report = photosynthesis_report
        for selection in report.selections:
            assert selection.yield_percentage is not None
            assert 0.0 <= selection.yield_percentage <= 100.0

    def test_surface_yields_computed(self, photosynthesis_report):
        _, report = photosynthesis_report
        assert len(report.front_yields) == 6
        assert all(0.0 <= y <= 100.0 for y in report.front_yields)

    def test_selection_lookup_unknown_criterion(self, photosynthesis_report):
        _, report = photosynthesis_report
        with pytest.raises(KeyError):
            report.selection("does-not-exist")

    def test_max_yield_selection_is_best_assessed_yield(self, photosynthesis_report):
        _, report = photosynthesis_report
        max_yield = report.selection("max_yield").yield_percentage
        others = [
            s.yield_percentage
            for s in report.selections
            if s.criterion != "max_yield" and s.yield_percentage is not None
        ]
        assert max_yield >= max(others) - 1e-9


class TestTrialsComputeOnlyTheProperty:
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_uptake_trials_compute_no_nitrogen(self, n_workers, monkeypatch):
        from repro.photosynthesis import problem as module

        designer = RobustPathwayDesigner(
            PhotosynthesisProblem(), small_config(), seed=0, n_workers=n_workers
        )
        with designer:
            result = designer.optimize(generations=2)
            selections = designer.mine(result)

            def no_nitrogen(X):
                raise AssertionError("a robustness trial computed nitrogen")

            monkeypatch.setattr(module, "total_nitrogen_batch", no_nitrogen)
            # Pool workers fork again on the next batch, so they see the patch.
            designer.evaluator.close()
            settings = RobustnessSettings(global_trials=10, seed=0)
            updated, surface = designer.assess_robustness(
                result, selections, "co2_uptake", settings=settings, surface_points=2
            )
            if n_workers > 1:
                assert designer.evaluator.fallbacks == 0
        assert all(design.yield_percentage is not None for design in updated)
        assert len(surface) == 2
        trial_rows = (len(selections) + 2) * (settings.global_trials + 1)
        assert designer.ledger.total_evaluations == result.evaluations + trial_rows
