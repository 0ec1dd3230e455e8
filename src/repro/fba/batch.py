"""Batched what-if screening of flux-vector populations.

The Geobacter formulation (and any flux-space sampler) asks the same two
questions of thousands of candidate flux vectors: how badly does each violate
the steady-state constraint ``S v = 0``, and how far does each stray outside
the box bounds?  This module screens a whole ``(n, n_reactions)`` population
in one pass; :meth:`~repro.fba.model.StoichiometricModel.constraint_violation`
is the same screen over one vector.

Bitwise discipline: every residual equals the one the per-row GEMV
``S @ v`` gives, up to the sign of a zero (the norms take ``abs``).  A
batched ``X @ S.T`` GEMM accumulates in another order and is not
chunk-invariant, so the residual follows a plan derived from the sparsity
of ``S`` and cached with the model's structural caches:

* a row with at most two nonzeros is ``c0 * v[j0] + c1 * v[j1]`` for the
  whole batch at once (padded with a zero coefficient).  The GEMV sum of
  such a row is exact in any order, since adding a zero product changes
  nothing and ``a + b`` commutes, provided the BLAS rounds each product
  before it adds them;
* the other rows keep a per-row GEMV, over the aligned 4-row blocks of
  ``S`` that hold them.  OpenBLAS sums a row in an order set by its place
  in its 4-row blocking, so a GEMV over those rows alone can differ from
  the full one in the last ulp, and the aligned blocks do not;
* a guard: the first time a process uses a plan, it compares the plan with
  the full per-row GEMV on a fixed seeded probe (the two box corners and
  random rows inside the box).  If any value differs, that process keeps
  the full GEMV.  The kernel and the thread count belong to the process,
  so the verdict is not pickled with the model;
* a row of ``X`` that holds a NaN or an infinity always takes the full
  GEMV, since ``0 * inf`` is NaN in the gathered products.

The ``l1`` / ``linf`` reductions are columnar (``np.sum`` and ``np.max``
over ``axis=1`` reproduce the scalar reductions exactly), while ``l2``
keeps a per-row ``np.linalg.norm`` (the axis form routes through a
differently-scaled BLAS ``nrm2``).

``tests/fba/test_fba_equivalence.py`` asserts equality against the preserved
references; ``benchmarks/bench_fba.py`` measures the speedup.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ModelConsistencyError

if TYPE_CHECKING:
    from repro.fba.model import StoichiometricModel

__all__ = ["VIOLATION_NORMS", "steady_state_violations", "bound_violations"]

#: The norms of the steady-state violation.
VIOLATION_NORMS = ("l1", "l2", "linf")

#: Random rows in the guard's probe, besides the two box corners.
_PROBE_ROWS = 32
_PROBE_SEED = 2011


def _validate_population(model: StoichiometricModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2 or X.shape[1] != model.n_reactions:
        raise ModelConsistencyError(
            "flux population must have shape (n, %d), got %r"
            % (model.n_reactions, X.shape)
        )
    return X


def _gemv_rows(matrix: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``matrix @ X[i]`` for every row ``i``, one GEMV each."""
    products = np.empty((X.shape[0], matrix.shape[0]))
    for row, fluxes in enumerate(X):
        products[row] = matrix @ fluxes
    return products


class ResidualPlan:
    """The rows of one ``S``, split by how :func:`residual_matrix` computes them."""

    def __init__(self, stoichiometric: np.ndarray) -> None:
        self.stoichiometric = stoichiometric
        counts = np.count_nonzero(stoichiometric, axis=1)
        self.short_rows = np.flatnonzero(counts <= 2)
        rows, columns = np.nonzero(stoichiometric[self.short_rows])
        slots = np.arange(rows.size) - np.searchsorted(rows, rows)
        #: Row ``k`` of ``short_rows`` is ``c[0, k] * v[j[0, k]] + c[1, k] * v[j[1, k]]``.
        self.columns = np.zeros((2, self.short_rows.size), dtype=np.intp)
        self.columns[slots, rows] = columns
        self.coefficients = np.zeros((2, self.short_rows.size))
        self.coefficients[slots, rows] = stoichiometric[self.short_rows[rows], columns]
        self.long_rows = np.flatnonzero(counts > 2)
        blocks = np.unique(self.long_rows // 4)
        block_rows = (4 * blocks[:, None] + np.arange(4)).ravel()
        block_rows = block_rows[block_rows < stoichiometric.shape[0]]
        self.blocks = np.ascontiguousarray(stoichiometric[block_rows])
        self.picked = np.searchsorted(block_rows, self.long_rows)
        #: Whether the plan reproduces the full GEMV in this process; None
        #: until the first use probes it.
        self.exact: bool | None = None

    def __getstate__(self) -> dict:
        return {**self.__dict__, "exact": None}

    def sparse_residuals(self, X: np.ndarray) -> np.ndarray:
        """The residuals of finite rows through the plan."""
        residuals = np.empty((X.shape[0], self.stoichiometric.shape[0]))
        short = X[:, self.columns[0]] * self.coefficients[0]
        short += X[:, self.columns[1]] * self.coefficients[1]
        residuals[:, self.short_rows] = short
        if self.long_rows.size:
            residuals[:, self.long_rows] = _gemv_rows(self.blocks, X)[:, self.picked]
        return residuals

    def matches_gemv(self, lower: np.ndarray, upper: np.ndarray) -> bool:
        """Whether the plan equals the full GEMV on the probe of a box.

        The probe is the two corners and :data:`_PROBE_ROWS` seeded random
        rows inside the box; an unbounded side is probed on ``[-1, 1]``.
        """
        lower = np.where(np.isfinite(lower), lower, -1.0)
        upper = np.where(np.isfinite(upper), upper, 1.0)
        rng = np.random.default_rng(_PROBE_SEED)
        probe = np.vstack(
            [lower, upper, rng.uniform(lower, upper, size=(_PROBE_ROWS, lower.size))]
        )
        return bool(
            np.array_equal(
                self.sparse_residuals(probe), _gemv_rows(self.stoichiometric, probe)
            )
        )

    def residuals(self, X: np.ndarray) -> np.ndarray:
        """The residuals of every row; the guard must have run."""
        if not self.exact:
            return _gemv_rows(self.stoichiometric, X)
        finite = np.isfinite(X).all(axis=1)
        if finite.all():
            return self.sparse_residuals(X)
        residuals = np.empty((X.shape[0], self.stoichiometric.shape[0]))
        residuals[finite] = self.sparse_residuals(X[finite])
        residuals[~finite] = _gemv_rows(self.stoichiometric, X[~finite])
        return residuals


def residual_matrix(model: StoichiometricModel, X: np.ndarray) -> np.ndarray:
    """Steady-state residuals ``S v`` of every flux vector, one row each.

    Row ``i`` equals ``S @ X[i]`` bitwise, up to the sign of a zero, so
    pooled and serial evaluation agree no matter how the population is
    chunked (see the module docstring for the plan and its guard).
    """
    X = _validate_population(model, X)
    plan = model._residual_plan()
    if plan.exact is None:
        plan.exact = plan.matches_gemv(*model.bounds())
    return plan.residuals(X)


def steady_state_violations(
    model: StoichiometricModel, X: np.ndarray, norm: str = "l1"
) -> np.ndarray:
    """Violation of ``S v = 0`` for every row of a flux population.

    Equivalent to calling
    :meth:`~repro.fba.model.StoichiometricModel.constraint_violation` per
    row, but with one residual pass and columnar reductions; ``norm`` may be
    ``"l1"``, ``"l2"`` or ``"linf"`` exactly as in the scalar method.

    Screen a sampled flux population in one call::

        X = rng.uniform(lower, upper, size=(1024, model.n_reactions))
        violations = steady_state_violations(model, X, norm="l1")
        feasible = X[violations < tolerance]
    """
    if norm not in VIOLATION_NORMS:
        raise ModelConsistencyError(
            "unknown norm %r; expected one of %s" % (norm, ", ".join(VIOLATION_NORMS))
        )
    residuals = residual_matrix(model, X)
    if norm == "l1":
        return np.sum(np.abs(residuals), axis=1)
    if norm == "l2":
        return np.array([float(np.linalg.norm(row)) for row in residuals])
    return np.max(np.abs(residuals), axis=1)


#: Rows per block of the bound screen; keeps the scratch buffer inside the
#: cache so large populations stay bandwidth-friendly (values are identical
#: for any block size — the row sums are independent).
_BOUND_BLOCK = 128


def bound_violations(model: StoichiometricModel, X: np.ndarray) -> np.ndarray:
    """Total box-bound violation of every row of a flux population.

    Equivalent to
    :meth:`~repro.fba.model.StoichiometricModel.bound_violation` per row.
    The screen reuses one block-sized scratch buffer for both clip passes
    instead of materializing four population-sized temporaries.
    """
    X = _validate_population(model, X)
    lower, upper = model.bounds()
    violations = np.empty(X.shape[0])
    scratch = np.empty((min(_BOUND_BLOCK, X.shape[0]), X.shape[1]))
    for start in range(0, X.shape[0], _BOUND_BLOCK):
        block = X[start : start + _BOUND_BLOCK]
        buffer = scratch[: block.shape[0]]
        np.subtract(lower[None, :], block, out=buffer)
        np.clip(buffer, 0.0, None, out=buffer)
        total = buffer.sum(axis=1)
        np.subtract(block, upper[None, :], out=buffer)
        np.clip(buffer, 0.0, None, out=buffer)
        total += buffer.sum(axis=1)
        violations[start : start + _BOUND_BLOCK] = total
    return violations
