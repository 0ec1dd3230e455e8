"""Tests for the synthetic validation problems."""

import numpy as np
import pytest

from repro.moo import kernels
from repro.moo.testproblems import (
    DTLZ2,
    ConstrainedBNH,
    FonsecaFleming,
    Kursawe,
    Schaffer,
    ZDT1,
    ZDT2,
    ZDT3,
    ZDT6,
    available_test_problems,
)


def _evaluate_one(problem, x):
    """Single-design evaluation through the batch-first contract."""
    return problem.evaluate_matrix(np.asarray(x, dtype=float)[None, :])


class TestRegistry:
    def test_all_problems_instantiable_and_evaluable(self):
        rng = np.random.default_rng(0)
        for name, cls in available_test_problems().items():
            problem = cls()
            batch = _evaluate_one(problem, problem.random_solution(rng))
            assert batch.F.shape == (1, problem.n_obj), name
            assert np.all(np.isfinite(batch.F)), name


class TestVectorizedBatchPath:
    """Every built-in problem's matrix path must equal the row-by-row path."""

    @pytest.mark.parametrize("name,cls", sorted(available_test_problems().items()))
    def test_matrix_path_is_bitwise_identical_to_row_loop(self, name, cls):
        problem = cls()
        rng = np.random.default_rng(7)
        X = np.vstack([problem.random_solution(rng) for _ in range(32)])
        batch = problem.evaluate_matrix(X)
        row_F = np.vstack([_evaluate_one(problem, row).F for row in X])
        assert np.array_equal(batch.F, row_F), name
        if batch.n_con:
            row_G = np.vstack([_evaluate_one(problem, row).G for row in X])
            assert np.array_equal(batch.G, row_G), name

    @pytest.mark.parametrize("name,cls", sorted(available_test_problems().items()))
    def test_every_builtin_overrides_the_matrix_hook(self, name, cls):
        from repro.problems import Problem

        # The vectorized path must be a real override, not the scalar loop.
        assert cls._evaluate_matrix is not Problem._evaluate_matrix, name

    @pytest.mark.parametrize("name,cls", sorted(available_test_problems().items()))
    def test_empty_batches(self, name, cls):
        problem = cls()
        batch = problem.evaluate_matrix(np.empty((0, problem.n_var)))
        assert len(batch) == 0, name
        assert batch.F.shape == (0, problem.n_obj), name


class TestKnownValues:
    def test_schaffer_optimum_values(self):
        problem = Schaffer()
        assert _evaluate_one(problem, [0.0]).F[0] == pytest.approx([0.0, 4.0])
        assert _evaluate_one(problem, [2.0]).F[0] == pytest.approx([4.0, 0.0])
        assert _evaluate_one(problem, [1.0]).F[0] == pytest.approx([1.0, 1.0])

    def test_zdt1_on_the_optimal_manifold(self):
        problem = ZDT1(n_var=10)
        x = np.zeros(10)
        x[0] = 0.25
        objectives = _evaluate_one(problem, x).F[0]
        assert objectives[0] == pytest.approx(0.25)
        assert objectives[1] == pytest.approx(1.0 - np.sqrt(0.25))

    def test_zdt2_non_convex_front(self):
        problem = ZDT2(n_var=10)
        x = np.zeros(10)
        x[0] = 0.5
        assert _evaluate_one(problem, x).F[0, 1] == pytest.approx(0.75)

    def test_zdt3_disconnected_front_values(self):
        problem = ZDT3(n_var=10)
        x = np.zeros(10)
        x[0] = 0.25
        f1, f2 = _evaluate_one(problem, x).F[0]
        assert f1 == pytest.approx(0.25)
        assert f2 == pytest.approx(
            1.0 - np.sqrt(0.25) - 0.25 * np.sin(10.0 * np.pi * 0.25)
        )

    def test_zdt6_g_larger_than_one_off_manifold(self):
        problem = ZDT6(n_var=5)
        on = _evaluate_one(problem, [0.5, 0, 0, 0, 0]).F[0]
        off = _evaluate_one(problem, [0.5, 0.5, 0.5, 0.5, 0.5]).F[0]
        assert off[1] > on[1]

    def test_dtlz2_on_front_has_unit_norm(self):
        problem = DTLZ2(n_obj=3)
        x = np.full(problem.n_var, 0.5)
        objectives = _evaluate_one(problem, x).F[0]
        assert np.linalg.norm(objectives) == pytest.approx(1.0)

    def test_fonseca_symmetric_point(self):
        problem = FonsecaFleming(n_var=3)
        objectives = _evaluate_one(problem, np.zeros(3)).F[0]
        assert objectives[0] == pytest.approx(objectives[1])

    def test_bnh_constraints(self):
        problem = ConstrainedBNH()
        batch = problem.evaluate_matrix(np.array([[1.0, 1.0], [0.0, 3.0]]))
        assert bool(batch.feasible[0])
        assert not bool(batch.feasible[1])

    def test_kursawe_runs(self):
        problem = Kursawe()
        assert np.all(np.isfinite(_evaluate_one(problem, np.zeros(3)).F))


class TestTrueFronts:
    @pytest.mark.parametrize("cls", [Schaffer, FonsecaFleming, ZDT1, ZDT2, ZDT3, ZDT6])
    def test_true_front_members_are_mutually_non_dominated(self, cls):
        front = cls().true_front(50)
        assert not kernels.domination_matrix(front).any()

    def test_zdt1_front_matches_analytical_curve(self):
        front = ZDT1().true_front(20)
        assert np.allclose(front[:, 1], 1.0 - np.sqrt(front[:, 0]))

    def test_random_solutions_never_dominate_true_front_of_zdt1(self):
        problem = ZDT1(n_var=8)
        front = problem.true_front(100)
        rng = np.random.default_rng(1)
        X = np.vstack([problem.random_solution(rng) for _ in range(50)])
        F = problem.evaluate_matrix(X).F
        feasible, on_front = np.zeros(len(F)), np.zeros(len(front))
        assert not kernels.constrained_domination_blocks(F, feasible, front, on_front).any()
