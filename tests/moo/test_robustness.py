"""Tests for the robustness framework (rho, Gamma, Monte-Carlo ensembles)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.moo.robustness import (
    PerturbationModel,
    RobustnessSettings,
    front_yields,
    local_yields,
    robustness_condition,
    uptake_yield,
)


class TestRobustnessCondition:
    def test_within_relative_threshold(self):
        assert robustness_condition(10.0, 10.4, epsilon=0.05) == 1
        assert robustness_condition(10.0, 9.6, epsilon=0.05) == 1

    def test_outside_relative_threshold(self):
        assert robustness_condition(10.0, 11.0, epsilon=0.05) == 0
        assert robustness_condition(10.0, 9.0, epsilon=0.05) == 0

    def test_absolute_threshold_mode(self):
        assert robustness_condition(10.0, 10.4, epsilon=0.5, relative=False) == 1
        assert robustness_condition(10.0, 10.6, epsilon=0.5, relative=False) == 0

    def test_boundary_is_robust(self):
        assert robustness_condition(10.0, 10.5, epsilon=0.05) == 1

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ConfigurationError):
            robustness_condition(1.0, 1.0, epsilon=-0.1)


class TestPerturbationModel:
    def test_global_perturbation_within_magnitude(self):
        model = PerturbationModel(magnitude=0.1)
        x = np.full(5, 10.0)
        trials = model.perturb_all(x, 500, np.random.default_rng(0))
        assert trials.shape == (500, 5)
        assert np.all(trials >= 9.0 - 1e-12)
        assert np.all(trials <= 11.0 + 1e-12)

    def test_local_perturbation_touches_only_one_variable(self):
        model = PerturbationModel(magnitude=0.1)
        x = np.array([1.0, 2.0, 3.0])
        trials = model.perturb_one(x, 1, 100, np.random.default_rng(0))
        assert np.all(trials[:, 0] == 1.0)
        assert np.all(trials[:, 2] == 3.0)
        assert np.any(trials[:, 1] != 2.0)

    def test_normal_distribution_respects_truncation(self):
        model = PerturbationModel(magnitude=0.1, distribution="normal")
        trials = model.perturb_all(np.ones(3), 500, np.random.default_rng(1))
        assert np.all(trials >= 0.9 - 1e-12)
        assert np.all(trials <= 1.1 + 1e-12)

    def test_clipping_to_bounds(self):
        model = PerturbationModel(magnitude=0.5, clip_lower=np.full(2, 0.9), clip_upper=np.full(2, 1.1))
        trials = model.perturb_all(np.ones(2), 200, np.random.default_rng(2))
        assert np.all(trials >= 0.9)
        assert np.all(trials <= 1.1)

    @pytest.mark.parametrize("kwargs", [{"magnitude": 0.0}, {"magnitude": 1.5}, {"distribution": "cauchy"}])
    def test_invalid_model_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            PerturbationModel(**kwargs).validate()

    def test_local_perturbation_index_out_of_range(self):
        model = PerturbationModel()
        with pytest.raises(ConfigurationError):
            model.perturb_one(np.ones(3), 5, 10, np.random.default_rng(0))


class TestRobustnessSettings:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("global_trials", 0),
            ("local_trials", 0),
            ("global_trials", -3),
            ("epsilon", -0.01),
            ("magnitude", 0.0),
            ("magnitude", 1.0),
            ("distribution", "cauchy"),
        ],
    )
    def test_invalid_settings_rejected_at_construction(self, field, value):
        with pytest.raises(ConfigurationError, match=field.split("_")[-1]):
            RobustnessSettings(**{field: value})

    def test_paper_defaults_are_valid(self):
        settings = RobustnessSettings()
        assert (settings.global_trials, settings.local_trials) == (5000, 200)


class TestYield:
    def test_linear_function_is_fully_robust_for_wide_epsilon(self):
        settings = RobustnessSettings(epsilon=0.5, global_trials=200, seed=0)
        report = uptake_yield(np.ones(4), lambda X: X.sum(axis=1), settings=settings)
        assert report.yield_fraction == pytest.approx(1.0)
        assert report.yield_percentage == pytest.approx(100.0)

    def test_fragile_function_has_low_yield(self):
        # A property that jumps as soon as any variable moves is never robust.
        def spiky(X):
            return np.where(np.all(np.isclose(X, 1.0), axis=1), 0.0, 100.0)

        settings = RobustnessSettings(epsilon=0.05, global_trials=100, seed=0)
        report = uptake_yield(np.ones(3), spiky, settings=settings)
        assert report.yield_fraction == pytest.approx(0.0)

    def test_yield_between_zero_and_one(self):
        settings = RobustnessSettings(epsilon=0.05, global_trials=100, seed=1)
        report = uptake_yield(
            np.ones(3), lambda X: X.prod(axis=1), settings=settings
        )
        assert 0.0 <= report.yield_fraction <= 1.0
        assert report.n_trials == 100
        assert report.robust_trials == int(report.yield_fraction * 100)

    def test_seed_makes_yield_deterministic(self):
        settings = RobustnessSettings(epsilon=0.02, global_trials=200, seed=7)
        f = lambda X: (X ** 2).sum(axis=1)
        a = uptake_yield(np.ones(4), f, settings=settings).yield_fraction
        b = uptake_yield(np.ones(4), f, settings=settings).yield_fraction
        assert a == b

    def test_wider_epsilon_never_lowers_yield(self):
        f = lambda X: (X ** 2).sum(axis=1)
        narrow = uptake_yield(
            np.ones(4), f, settings=RobustnessSettings(epsilon=0.01, global_trials=300, seed=3)
        ).yield_fraction
        wide = uptake_yield(
            np.ones(4), f, settings=RobustnessSettings(epsilon=0.2, global_trials=300, seed=3)
        ).yield_fraction
        assert wide >= narrow

    def test_pre_generated_trials_are_used(self):
        trials = np.ones((10, 3))
        report = uptake_yield(np.ones(3), lambda X: X.sum(axis=1), trials=trials)
        assert report.n_trials == 10
        assert report.yield_fraction == pytest.approx(1.0)


class TestLocalAndFrontYields:
    def test_local_yields_identify_the_sensitive_variable(self):
        # The property depends strongly on x0 and not at all on x1.
        def f(X):
            return 100.0 * X[:, 0] + 0.001 * X[:, 1]

        settings = RobustnessSettings(epsilon=0.01, local_trials=100, seed=0)
        reports = local_yields(np.ones(2), f, settings=settings, variable_names=["a", "b"])
        assert set(reports) == {"a", "b"}
        assert reports["b"].yield_fraction == pytest.approx(1.0)
        assert reports["a"].yield_fraction < 1.0

    def test_local_yields_name_mismatch(self):
        with pytest.raises(ConfigurationError):
            local_yields(np.ones(2), lambda X: np.zeros(len(X)), variable_names=["only"])

    def test_front_yields_one_report_per_design(self):
        decisions = np.vstack([np.ones(3), 2 * np.ones(3)])
        settings = RobustnessSettings(epsilon=0.5, global_trials=50, seed=0)
        reports = front_yields(decisions, lambda X: X.sum(axis=1), settings=settings)
        assert len(reports) == 2

    def test_front_yields_match_per_design_calls(self):
        decisions = np.array([[0.2, 0.3, 0.4], [0.5, 0.6, 0.7], [0.8, 0.1, 0.9]])
        settings = RobustnessSettings(epsilon=0.1, global_trials=30, seed=0)
        f = lambda X: X[:, 0] * X[:, 1] + X[:, 2]
        stacked = front_yields(decisions, f, settings=settings)
        for report, row in zip(stacked, decisions):
            single = uptake_yield(row, f, settings=settings)
            assert report.nominal_value == single.nominal_value
            assert np.array_equal(report.perturbed_values, single.perturbed_values)
            assert report.robust_trials == single.robust_trials

    def test_property_function_is_called_once_per_call(self):
        calls = []

        def f(X):
            calls.append(X.shape)
            return X.sum(axis=1)

        settings = RobustnessSettings(epsilon=0.1, global_trials=7, local_trials=5, seed=0)
        front_yields(np.ones((4, 3)), f, settings=settings)
        local_yields(np.ones(3), f, settings=settings)
        assert calls == [(4 * 8, 3), (3 * 6, 3)]

    def test_property_function_must_return_one_value_per_row(self):
        with pytest.raises(ConfigurationError, match="n values"):
            uptake_yield(np.ones(3), lambda X: X, settings=RobustnessSettings(global_trials=4))

    def test_empty_pre_generated_ensemble_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one trial"):
            uptake_yield(np.ones(3), lambda X: X.sum(axis=1), trials=np.empty((0, 3)))

    def test_front_yields_requires_matrix(self):
        with pytest.raises(ConfigurationError):
            front_yields(np.ones(3), lambda X: np.zeros(len(X)))
