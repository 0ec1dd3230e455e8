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
)
from repro.problems import build_problem
from tests.oracles.fronts import true_front

#: Registry names of the synthetic problems (the science problems have their
#: own suites).
SYNTHETIC = ["bnh", "dtlz2", "fonseca", "kursawe", "schaffer", "zdt1", "zdt2", "zdt3", "zdt6"]


def _evaluate_one(problem, x):
    """Single-design evaluation through the batch-first contract."""
    return problem.evaluate_matrix(np.asarray(x, dtype=float)[None, :])


class TestRegistry:
    def test_all_problems_instantiable_and_evaluable(self):
        rng = np.random.default_rng(0)
        for name in SYNTHETIC:
            problem = build_problem(name)
            batch = _evaluate_one(problem, problem.random_solution(rng))
            assert batch.F.shape == (1, problem.n_obj), name
            assert np.all(np.isfinite(batch.F)), name


class TestVectorizedBatchPath:
    """Every built-in problem's matrix path must equal the row-by-row path."""

    @pytest.mark.parametrize("name", SYNTHETIC)
    def test_matrix_path_is_bitwise_identical_to_row_loop(self, name):
        problem = build_problem(name)
        rng = np.random.default_rng(7)
        X = np.vstack([problem.random_solution(rng) for _ in range(32)])
        batch = problem.evaluate_matrix(X)
        row_F = np.vstack([_evaluate_one(problem, row).F for row in X])
        assert np.array_equal(batch.F, row_F), name
        if batch.n_con:
            row_G = np.vstack([_evaluate_one(problem, row).G for row in X])
            assert np.array_equal(batch.G, row_G), name

    @pytest.mark.parametrize("name", SYNTHETIC)
    def test_every_builtin_overrides_the_matrix_hook(self, name):
        from repro.problems import Problem

        # The vectorized path must be a real override, not the scalar loop.
        assert type(build_problem(name))._evaluate_matrix is not Problem._evaluate_matrix, name

    @pytest.mark.parametrize("name", SYNTHETIC)
    def test_empty_batches(self, name):
        problem = build_problem(name)
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


def _zdt_set(problem, front):
    """ZDT's Pareto set: ``x0`` sweeps ``f1``, the other variables sit at 0 (g = 1)."""
    X = np.zeros((len(front), problem.n_var))
    X[:, 0] = front[:, 0]
    return X


def _zdt6_set(problem, front):
    """Invert ``f1 = 1 - exp(-4 x0) sin^6(6 pi x0)`` on its rising branch in ``[0, 1/6]``."""
    from scipy.optimize import brentq, minimize_scalar

    def f1(x):
        return 1.0 - np.exp(-4.0 * x) * np.sin(6.0 * np.pi * x) ** 6

    top = 1.0 / 6.0
    lowest = minimize_scalar(f1, bounds=(0.0, top), method="bounded", options={"xatol": 1e-12}).x
    X = np.zeros((len(front), problem.n_var))
    X[:, 0] = [
        top if value >= 1.0 else brentq(lambda x: f1(x) - value, lowest, top, xtol=1e-14)
        for value in front[:, 0]
    ]
    return X


def _dtlz2_set(problem, front):
    """Angles of each sphere point; the distance variables sit at 0.5 (g = 0)."""
    m = problem.n_obj
    X = np.full((len(front), problem.n_var), 0.5)
    for j in range(m - 1):
        rest = np.linalg.norm(front[:, : m - 1 - j], axis=1)
        X[:, j] = np.arctan2(front[:, m - 1 - j], rest) * 2.0 / np.pi
    return X


def _fonseca_set(problem, front):
    """Every variable equals ``t`` in ``[-1/sqrt(n), 1/sqrt(n)]``, recovered from ``f1``."""
    shift = 1.0 / np.sqrt(problem.n_var)
    t = shift - np.sqrt(-np.log1p(-front[:, 0]) / problem.n_var)
    return np.repeat(t[:, None], problem.n_var, axis=1)


#: Each oracle front mapped back onto the decision vectors that attain it.
PARETO_SETS = {
    Schaffer: lambda problem, front: np.sqrt(front[:, :1]),
    FonsecaFleming: _fonseca_set,
    ZDT1: _zdt_set,
    ZDT2: _zdt_set,
    ZDT3: _zdt_set,
    ZDT6: _zdt6_set,
    DTLZ2: _dtlz2_set,
}


class TestTrueFronts:
    @pytest.mark.parametrize("cls", [Schaffer, FonsecaFleming, ZDT1, ZDT2, ZDT3, ZDT6, DTLZ2])
    def test_true_front_members_are_mutually_non_dominated(self, cls):
        front = true_front(cls(), 50)
        assert not kernels.domination_matrix(front).any()

    def test_zdt1_front_matches_analytical_curve(self):
        front = true_front(ZDT1(), 20)
        assert np.allclose(front[:, 1], 1.0 - np.sqrt(front[:, 0]))

    def test_random_solutions_never_dominate_true_front_of_zdt1(self):
        problem = ZDT1(n_var=8)
        front = true_front(problem, 100)
        rng = np.random.default_rng(1)
        X = np.vstack([problem.random_solution(rng) for _ in range(50)])
        F = problem.evaluate_matrix(X).F
        feasible, on_front = np.zeros(len(F)), np.zeros(len(front))
        assert not kernels.constrained_domination_blocks(F, feasible, front, on_front).any()

    @pytest.mark.parametrize("cls", list(PARETO_SETS), ids=lambda cls: cls.__name__)
    def test_true_front_is_the_image_of_its_pareto_set(self, cls):
        # The oracle's points are attained by the problem itself, so the
        # engines' IGD against them measures distance to the real front.
        problem = cls()
        front = true_front(problem)
        X = PARETO_SETS[cls](problem, front)
        assert np.all((X >= problem.lower_bounds) & (X <= problem.upper_bounds))
        np.testing.assert_allclose(problem.evaluate_matrix(X).F, front, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize(
        "cls", [Schaffer, FonsecaFleming, ZDT2, ZDT3, ZDT6, DTLZ2], ids=lambda cls: cls.__name__
    )
    def test_random_solutions_never_dominate_the_true_front(self, cls):
        problem = cls()
        front = true_front(problem)
        rng = np.random.default_rng(1)
        X = np.vstack([problem.random_solution(rng) for _ in range(200)])
        F = problem.evaluate_matrix(X).F
        feasible, on_front = np.zeros(len(F)), np.zeros(len(front))
        assert not kernels.constrained_domination_blocks(F, feasible, front, on_front).any()
