"""Tests of the composable termination criteria.

Covers the satellite requirements of the solver-API redesign: every
criterion alone, ``&`` / ``|`` composition, and the convergence case —
``HypervolumeStagnation`` terminating a converged ZDT1 run earlier than
``MaxGenerations`` while the fronts at the stopping generation remain
deterministic.
"""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.moo.testproblems import ZDT1, Schaffer
from repro.solve import (
    AllOf,
    AnyOf,
    HypervolumeStagnation,
    MaxEvaluations,
    MaxGenerations,
    RunProgress,
    Termination,
    WallClock,
    as_termination,
    solve,
)


def _progress(generation=0, evaluations=0, elapsed=0.0, front=None):
    from repro.moo.individual import Population

    return RunProgress(
        generation=generation,
        evaluations=evaluations,
        elapsed=elapsed,
        front_factory=lambda: front if front is not None else Population(),
    )


class TestMaxGenerations:
    def test_stops_at_bound(self):
        criterion = MaxGenerations(10)
        assert not criterion.should_stop(_progress(generation=9))
        assert criterion.should_stop(_progress(generation=10))
        assert criterion.should_stop(_progress(generation=11))

    def test_zero_generations_stops_immediately(self):
        assert MaxGenerations(0).should_stop(_progress(generation=0))

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            MaxGenerations(-1)

    def test_bounds_a_run(self):
        result = solve(Schaffer(), "nsga2", seed=0, population_size=8,
                       termination=MaxGenerations(4))
        assert result.generations == 4


class TestMaxEvaluations:
    def test_stops_at_budget(self):
        criterion = MaxEvaluations(100)
        assert not criterion.should_stop(_progress(evaluations=99))
        assert criterion.should_stop(_progress(evaluations=100))

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            MaxEvaluations(0)

    def test_bounds_a_run_at_generation_boundary(self):
        result = solve(Schaffer(), "nsga2", seed=0, population_size=8,
                       termination=MaxEvaluations(50))
        # 8 initial + 8 per generation: first boundary at or past 50 is 56.
        assert result.evaluations == 56


class TestWallClock:
    def test_stops_on_elapsed(self):
        criterion = WallClock(5.0)
        assert not criterion.should_stop(_progress(elapsed=4.9))
        assert criterion.should_stop(_progress(elapsed=5.0))

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            WallClock(0.0)

    def test_tiny_budget_stops_run_quickly(self):
        result = solve(Schaffer(), "nsga2", seed=0, population_size=8,
                       termination=MaxGenerations(10_000) | WallClock(1e-9))
        assert result.generations < 10_000


class TestComposition:
    def test_or_stops_when_either_fires(self):
        combined = MaxGenerations(10) | MaxEvaluations(100)
        assert isinstance(combined, AnyOf)
        assert combined.should_stop(_progress(generation=10, evaluations=0))
        assert combined.should_stop(_progress(generation=0, evaluations=100))
        assert not combined.should_stop(_progress(generation=9, evaluations=99))

    def test_and_requires_both(self):
        combined = MaxGenerations(10) & MaxEvaluations(100)
        assert isinstance(combined, AllOf)
        assert not combined.should_stop(_progress(generation=10, evaluations=0))
        # The generation condition latched above; the budget firing now
        # completes the conjunction.
        assert combined.should_stop(_progress(generation=10, evaluations=100))

    def test_and_latches_fired_criteria(self):
        combined = MaxGenerations(5) & MaxEvaluations(100)
        assert not combined.should_stop(_progress(generation=5, evaluations=0))
        # Generation no longer satisfies its bound in this (artificial)
        # snapshot, but the latch remembers it fired.
        assert combined.should_stop(_progress(generation=0, evaluations=100))
        combined.reset()
        assert not combined.should_stop(_progress(generation=0, evaluations=100))
        assert combined.should_stop(_progress(generation=5, evaluations=100))

    def test_same_operator_chains_flatten(self):
        chained = MaxGenerations(1) | MaxGenerations(2) | MaxGenerations(3)
        assert len(chained.criteria) == 3

    def test_combining_with_non_termination_rejected(self):
        with pytest.raises(ConfigurationError):
            AnyOf(MaxGenerations(1), "not-a-termination")


class TestAsTermination:
    def test_int_means_max_generations(self):
        criterion = as_termination(7)
        assert isinstance(criterion, MaxGenerations)
        assert criterion.generations == 7

    def test_termination_passes_through(self):
        criterion = MaxEvaluations(5)
        assert as_termination(criterion) is criterion

    def test_none_rejected(self):
        with pytest.raises(ConfigurationError):
            as_termination(None)

    def test_bool_and_junk_rejected(self):
        with pytest.raises(ConfigurationError):
            as_termination(True)
        with pytest.raises(ConfigurationError):
            as_termination("100")


class TestHypervolumeStagnation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            HypervolumeStagnation(patience=0)
        with pytest.raises(ConfigurationError):
            HypervolumeStagnation(tolerance=-1.0)

    def test_empty_front_never_stops(self):
        criterion = HypervolumeStagnation(patience=1)
        assert not criterion.should_stop(_progress())

    def test_stops_converged_zdt1_earlier_than_max_generations(self):
        """The convergence criterion fires before the generation budget."""
        budget = 150
        stagnation = HypervolumeStagnation(patience=10, tolerance=1e-3)
        converged = solve(
            ZDT1(n_var=6), "nsga2", seed=0, population_size=16,
            termination=MaxGenerations(budget) | stagnation,
        )
        bounded = solve(
            ZDT1(n_var=6), "nsga2", seed=0, population_size=16,
            termination=MaxGenerations(budget),
        )
        assert converged.generations < bounded.generations == budget

    def test_fronts_at_stop_are_deterministic(self):
        """Same seed, same criterion: the early-stopped front is bitwise stable,
        and identical to the fixed-budget run of the same length."""
        def run_once():
            stagnation = HypervolumeStagnation(patience=10, tolerance=1e-3)
            return solve(
                ZDT1(n_var=6), "nsga2", seed=0, population_size=16,
                termination=MaxGenerations(150) | stagnation,
            )

        first, second = run_once(), run_once()
        assert first.generations == second.generations
        assert np.array_equal(first.front_objectives(), second.front_objectives())
        # The stopped run equals the fixed-budget run of that length.
        fixed = solve(
            ZDT1(n_var=6), "nsga2", seed=0, population_size=16,
            termination=MaxGenerations(first.generations),
        )
        assert np.array_equal(first.front_objectives(), fixed.front_objectives())

    def test_reset_forgets_tracked_state(self):
        stagnation = HypervolumeStagnation(patience=2, tolerance=0.5)
        result = solve(ZDT1(n_var=6), "nsga2", seed=0, population_size=16,
                       termination=MaxGenerations(50) | stagnation)
        assert result.generations < 50
        stagnation.reset()
        # Reusing the criterion after reset behaves like a fresh instance.
        again = solve(ZDT1(n_var=6), "nsga2", seed=0, population_size=16,
                      termination=MaxGenerations(50) | stagnation)
        assert again.generations == result.generations


class TestCustomCriterion:
    def test_user_defined_termination_plugs_in(self):
        class FrontSize(Termination):
            def __init__(self, target):
                self.target = target

            def should_stop(self, progress):
                return len(progress.front) >= self.target

        result = solve(Schaffer(), "nsga2", seed=0, population_size=8,
                       termination=FrontSize(10) | MaxGenerations(100))
        assert len(result.front) >= 10
        assert result.generations < 100

    def test_lazy_front_computed_once_per_generation(self):
        computed = []

        class Spy(Termination):
            def should_stop(self, progress):
                computed.append(progress.front is progress.front)
                return False

        solve(Schaffer(), "nsga2", seed=0, population_size=8,
              termination=Spy() | MaxGenerations(3))
        # `front is front` proves the per-progress cache returns one object.
        assert computed and all(computed)
