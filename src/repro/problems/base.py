"""The batch-first multi-objective Problem contract.

Every optimization task in this library — the synthetic ZDT/DTLZ validation
problems, the C3 photosynthesis enzyme-partitioning problem and the Geobacter
flux-design problem — is a :class:`Problem`.  The primary evaluation path is
**columnar**: :meth:`Problem.evaluate_matrix` maps an ``(n, n_var)`` decision
matrix to a :class:`~repro.problems.batch.BatchEvaluation` of ``(n, n_obj)``
objectives and ``(n, n_con)`` constraint violations, which the evaluators in
:mod:`repro.runtime`, :meth:`repro.moo.individual.Population.evaluate` and the
vectorized kernels of :mod:`repro.moo.kernels` consume end to end.

Implementing a problem
----------------------
Subclasses implement one hook, ``_evaluate_matrix(X) -> BatchEvaluation``.
It receives a validated, non-empty ``(n, n_var)`` matrix and returns the
objectives (and constraint violations) of every row.  Objectives that are
numpy column operations compute the whole batch at once (all the synthetic
test problems do); per-design physics (one ODE solve per candidate) loops
the rows and stacks them::

    def _evaluate_matrix(self, X):
        return BatchEvaluation(F=np.vstack([self._solve(x) for x in X]))

Conventions
-----------
* All objectives are **minimized**.  Problems that naturally maximize a
  quantity (CO2 uptake, biomass production, ...) negate it internally and
  expose the sign convention through :attr:`Problem.objective_senses`.
* The decision side is a continuous box: :attr:`Problem.lower_bounds`,
  :attr:`Problem.upper_bounds` and one name per variable
  (:attr:`Problem.names`); :meth:`Problem.design_space` is its JSON form.
* Constraints are expressed as violation values, where ``<= 0`` means
  satisfied; the aggregate violation is the sum of the positive entries.

Example
-------
A vectorized problem in a dozen lines::

    >>> import numpy as np
    >>> from repro.problems import BatchEvaluation, Problem
    >>> class Sphere(Problem):
    ...     '''Minimize distance to the origin and to (1, ..., 1).'''
    ...     def __init__(self, n_var=3):
    ...         super().__init__(n_var=n_var, n_obj=2,
    ...                          lower_bounds=[-1.0] * n_var,
    ...                          upper_bounds=[1.0] * n_var)
    ...     def _evaluate_matrix(self, X):
    ...         return BatchEvaluation(F=np.column_stack([
    ...             np.sum(X ** 2, axis=1), np.sum((X - 1.0) ** 2, axis=1)]))
    >>> Sphere().evaluate_matrix(np.zeros((2, 3))).F
    array([[0., 3.],
           [0., 3.]])
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, DimensionError
from repro.problems.batch import BatchEvaluation

__all__ = [
    "Problem",
    "FunctionalProblem",
]


class Problem:
    """Batch-first multi-objective minimization problem.

    Parameters
    ----------
    n_var:
        Number of decision variables.
    n_obj:
        Number of objectives.
    lower_bounds, upper_bounds:
        Element-wise box bounds of the decision space.  Infinite bounds are
        legal (subclasses then supply their own sampling); NaN is not.
    names:
        Optional names of the decision variables (e.g. enzyme names),
        ``x0``, ``x1``, ... by default; non-empty and unique.  Used by
        reports, manifests and the local robustness analysis.
    objective_names:
        Optional human-readable names of the objectives.
    objective_senses:
        Sequence of ``+1`` / ``-1`` describing how the *reported* quantity maps
        to the minimized objective: ``-1`` means the natural quantity is
        maximized and therefore negated internally.
    n_con:
        Number of constraints: the width of every batch's ``G``, a zero-row
        one included.
    """

    def __init__(
        self,
        n_var: int,
        n_obj: int = 1,
        lower_bounds: Sequence[float] | None = None,
        upper_bounds: Sequence[float] | None = None,
        names: Sequence[str] | None = None,
        objective_names: Sequence[str] | None = None,
        objective_senses: Sequence[int] | None = None,
        n_con: int = 0,
    ) -> None:
        if n_var is None or n_var <= 0:
            raise ConfigurationError("n_var must be positive, got %r" % n_var)
        if lower_bounds is None or upper_bounds is None:
            raise ConfigurationError("problems need box bounds")
        lower = np.array(lower_bounds, dtype=float)
        upper = np.array(upper_bounds, dtype=float)
        if lower.shape != (n_var,) or upper.shape != (n_var,):
            raise DimensionError(
                "bounds must have shape (%d,), got %r and %r"
                % (n_var, lower.shape, upper.shape)
            )
        if np.isnan(lower).any() or np.isnan(upper).any():
            raise ConfigurationError("bounds must not be NaN")
        if np.any(upper < lower):
            raise ConfigurationError("upper bound below lower bound")
        if names is None:
            names = ["x%d" % i for i in range(n_var)]
        if len(names) != n_var:
            raise DimensionError("names must have length n_var")
        names = [str(name) for name in names]
        if not all(names):
            raise ConfigurationError("variable names must be non-empty")
        if len(set(names)) != n_var:
            raise ConfigurationError("variable names must be unique")
        if n_obj <= 0:
            raise ConfigurationError("n_obj must be positive, got %r" % n_obj)
        if n_con < 0:
            raise ConfigurationError("n_con must be non-negative, got %r" % n_con)
        self.n_var = int(n_var)
        self.n_obj = int(n_obj)
        self.n_con = int(n_con)
        self.lower_bounds = lower
        self.upper_bounds = upper
        self.names = names
        self.objective_names = (
            list(objective_names)
            if objective_names is not None
            else ["f%d" % i for i in range(n_obj)]
        )
        if len(self.objective_names) != n_obj:
            raise DimensionError("objective_names must have length n_obj")
        senses = objective_senses if objective_senses is not None else [1] * n_obj
        self.objective_senses = [int(s) for s in senses]
        #: Canonical problem spec string (``"zdt1?n_var=10"``), attached by
        #: the problem registry when the instance is built from a spec; None
        #: for hand-constructed problems.
        self.spec: str | None = None
        if len(self.objective_senses) != n_obj or any(
            s not in (-1, 1) for s in self.objective_senses
        ):
            raise ConfigurationError("objective_senses must be +/-1 per objective")
        # Fail at construction, not at first evaluation, when the hook is missing.
        if type(self)._evaluate_matrix is Problem._evaluate_matrix:
            raise TypeError("%s does not implement _evaluate_matrix" % type(self).__name__)

    # ------------------------------------------------------------------
    # The batch-first contract
    # ------------------------------------------------------------------
    def evaluate_matrix(self, X: np.ndarray) -> BatchEvaluation:
        """Evaluate an ``(n, n_var)`` decision matrix — the primary path.

        A single 1-D vector of length ``n_var`` is accepted as a batch of
        one.  Rows of the returned batch correspond to rows of ``X`` in
        order, and the result is a pure function of ``X`` (its values, not
        its memory layout) — which is what lets serial, batched, pooled and
        cached execution stay bitwise interchangeable.  ``G`` has
        :attr:`n_con` columns, whatever the number of rows.

        Example
        -------
        >>> import numpy as np
        >>> from repro.moo.testproblems import ZDT1
        >>> ZDT1(n_var=4).evaluate_matrix(np.zeros((2, 4))).F.shape
        (2, 2)
        """
        X = self.validate_matrix(X)
        if X.shape[0] == 0:
            return BatchEvaluation.empty(self.n_obj, self.n_con)
        batch = self._evaluate_matrix(X)
        if batch.n_con != self.n_con:
            raise DimensionError(
                "%s returned %d constraint columns but declares n_con=%d"
                % (self.name, batch.n_con, self.n_con)
            )
        return batch

    def _evaluate_matrix(self, X: np.ndarray) -> BatchEvaluation:
        """The subclass hook: evaluate a validated, non-empty ``(n, n_var)`` matrix."""
        raise NotImplementedError

    def objective_index(self, name: str) -> int:
        """Column of the objective called ``name``; ConfigurationError if there is none."""
        if name not in self.objective_names:
            raise ConfigurationError(
                "unknown objective %r; expected one of %s" % (name, self.objective_names)
            )
        return self.objective_names.index(name)

    def objective_matrix(self, name: str, X: np.ndarray) -> np.ndarray:
        """Reported (natural-sign) value of objective ``name`` for every row of ``X``.

        The default keeps one column of :meth:`evaluate_matrix`.  An override
        may compute the one objective alone, but must return that column
        bitwise: callers use either path interchangeably.
        """
        column = self.objective_index(name)
        return self.reported_objectives(self.evaluate_matrix(X).F)[:, column]

    # ------------------------------------------------------------------
    # Helpers shared by all problems
    # ------------------------------------------------------------------
    def clip(self, x: np.ndarray) -> np.ndarray:
        """Project decision vector(s) onto the box bounds (shape-preserving)."""
        return np.clip(np.asarray(x, dtype=float), self.lower_bounds, self.upper_bounds)

    def validate(self, x: np.ndarray) -> np.ndarray:
        """Check the shape of a decision vector and return it as a float array."""
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.n_var,):
            raise DimensionError(
                "decision vector must have shape (%d,), got %r" % (self.n_var, arr.shape)
            )
        return arr

    def validate_matrix(self, X: np.ndarray) -> np.ndarray:
        """Check an ``(n, n_var)`` decision matrix (1-D vectors become one row).

        The matrix comes back C-contiguous (a C-ordered float matrix is not
        copied): row reductions such as a per-row dot product can sum in
        another order on a Fortran-ordered one, so the layout would change
        the objectives' last bits.
        """
        X = np.ascontiguousarray(X, dtype=float)
        if X.ndim == 1:
            if X.shape == (self.n_var,):
                return X.reshape(1, -1)
            if X.size == 0:
                return X.reshape(0, self.n_var)
            raise DimensionError(
                "decision vector must have shape (%d,), got %r"
                % (self.n_var, X.shape)
            )
        if X.ndim != 2 or X.shape[1] != self.n_var:
            raise DimensionError(
                "decision matrix must have shape (n, %d), got %r"
                % (self.n_var, X.shape)
            )
        return X

    def random_solution(self, rng: np.random.Generator) -> np.ndarray:
        """Sample one decision vector uniformly inside the box bounds.

        Exactly one ``rng.uniform(lower, upper)`` draw, so seeded runs
        consume the stream the same way whatever the problem.
        """
        return rng.uniform(self.lower_bounds, self.upper_bounds)

    def denormalize(self, unit: np.ndarray) -> np.ndarray:
        """Map vector(s) in ``[0, 1]^n_var`` onto the problem's box bounds."""
        unit = np.asarray(unit, dtype=float)
        return self.lower_bounds + unit * (self.upper_bounds - self.lower_bounds)

    def normalize(self, x: np.ndarray) -> np.ndarray:
        """Map decision vector(s) onto ``[0, 1]^n_var`` (inverse of denormalize).

        A zero-span variable is divided by 1 instead of 0.
        """
        span = self.upper_bounds - self.lower_bounds
        span = np.where(span == 0.0, 1.0, span)
        return (np.asarray(x, dtype=float) - self.lower_bounds) / span

    def design_space(self) -> dict:
        """JSON form of the decision box, recorded into run manifests.

        One ``continuous`` entry per variable, in decision-vector order.
        Warm starts compare it to refuse a front recorded on another box,
        and it is part of :meth:`cache_identity`.

        Example
        -------
        >>> from repro.moo.testproblems import Schaffer
        >>> Schaffer().design_space()
        {'variables': [{'kind': 'continuous', 'name': 'x0', 'lower': -10.0, 'upper': 10.0}]}
        """
        return {
            "variables": [
                {"kind": "continuous", "name": name, "lower": float(low), "upper": float(high)}
                for name, low, high in zip(self.names, self.lower_bounds, self.upper_bounds)
            ]
        }

    def reported_objectives(self, objectives: np.ndarray) -> np.ndarray:
        """Convert minimized objectives back to their natural sign."""
        return np.asarray(objectives, dtype=float) * np.asarray(
            self.objective_senses, dtype=float
        )

    def cache_identity(self) -> dict:
        """Canonical JSON-serializable identity used to scope cache keys.

        Two problem instances with equal identities are promised to compute
        the same objectives for the same decision matrix, so evaluation
        caches (:class:`~repro.runtime.evaluator.CachedEvaluator` in memory,
        :class:`~repro.runtime.diskcache.DiskCache` on disk) may share
        entries between them — across processes, runs and machines.

        The default identity covers the class, the canonical registry spec
        string when the instance was built from one (via
        :func:`repro.problems.registry.build_problem`), the design-space
        JSON and the objective metadata.  Subclasses whose objectives depend
        on constructor state *not* captured by those fields must override
        this method and mix that state in — otherwise a persistent cache
        could serve stale objectives across differently-configured
        instances.
        """
        identity: dict = {
            "class": "%s.%s" % (type(self).__module__, type(self).__qualname__),
            "name": self.name,
            "n_obj": self.n_obj,
            "objective_senses": list(self.objective_senses),
            "space": self.design_space(),
        }
        if self.spec is not None:
            identity["spec"] = self.spec
        return identity

    @property
    def name(self) -> str:
        """Human-readable problem name (class name unless overridden)."""
        return type(self).__name__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "%s(n_var=%d, n_obj=%d)" % (self.name, self.n_var, self.n_obj)


class FunctionalProblem(Problem):
    """A :class:`Problem` defined by plain Python callables.

    This is the quickest way to wrap an existing pair of functions into the
    optimizer, and is the form used by most unit tests and the quickstart
    example::

        problem = FunctionalProblem(
            n_var=2,
            objective_functions=[lambda x: x[0] ** 2, lambda x: (x[0] - 2) ** 2],
            lower_bounds=[-5, -5],
            upper_bounds=[5, 5],
        )
    """

    def __init__(
        self,
        n_var: int,
        objective_functions: Sequence[Callable[[np.ndarray], float]],
        lower_bounds: Sequence[float] | None = None,
        upper_bounds: Sequence[float] | None = None,
        constraint_functions: Sequence[Callable[[np.ndarray], float]] | None = None,
        names: Sequence[str] | None = None,
        objective_names: Sequence[str] | None = None,
        objective_senses: Sequence[int] | None = None,
    ) -> None:
        if not objective_functions:
            raise ConfigurationError("at least one objective function is required")
        super().__init__(
            n_var=n_var,
            n_obj=len(objective_functions),
            lower_bounds=lower_bounds,
            upper_bounds=upper_bounds,
            names=names,
            objective_names=objective_names,
            objective_senses=objective_senses,
            n_con=len(constraint_functions or []),
        )
        self._objective_functions = list(objective_functions)
        self._constraint_functions = list(constraint_functions or [])
        # Arbitrary callables cannot be hashed canonically, so the cache
        # identity is scoped to this instance (and its pickled pool copies)
        # rather than risking two different functional problems colliding.
        self._cache_token = os.urandom(8).hex()

    def cache_identity(self) -> dict:
        """Instance-scoped identity: callable objectives cannot be content-hashed.

        Two :class:`FunctionalProblem` instances with identical spaces may
        wrap entirely different callables, so sharing cache entries between
        instances would be unsound.  The token is generated at construction
        and survives pickling, so pooled workers evaluating copies of one
        instance still share its entries.
        """
        identity = super().cache_identity()
        identity["instance"] = self._cache_token
        return identity

    def _evaluate_matrix(self, X: np.ndarray) -> BatchEvaluation:
        """Call the objective, then the constraint callables on each row in turn."""
        objectives, violations = [], []
        for x in X:
            objectives.append([float(f(x)) for f in self._objective_functions])
            violations.append([float(g(x)) for g in self._constraint_functions])
        G = np.array(violations) if self._constraint_functions else None
        return BatchEvaluation(F=np.array(objectives), G=G)
