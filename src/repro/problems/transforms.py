"""Composable problem transforms: wrappers that stack over any Problem.

Each transform is itself a :class:`~repro.problems.base.Problem`, so
transforms compose freely — ``Noisy(Normalized(ZDT1()))`` is a problem like
any other — and every transform is registry-addressable through the spec
string syntax of :mod:`repro.problems.registry` (``"zdt1?noise=0.01"``).
This is what opens the scenario grid the roadmap asks for: noisy, robust,
normalized and penalized variants of every experiment come from wrappers, not
from new problem classes.

The transforms:

* :class:`Noisy` — deterministic Gaussian objective noise (simulated
  measurement error); the noise is a pure function of the decision vector,
  so serial, batched, pooled and cached runs stay interchangeable;
* :class:`Normalized` — optimize over the unit box ``[0, 1]^n_var``;
* :class:`ObjectiveSubset` — keep a subset of the objectives;
* :class:`ConstraintAsPenalty` — fold constraint violations into the
  objectives with a penalty weight (for unconstrained-only algorithms);
* :class:`BudgetCounting` — count evaluations and optionally enforce a hard
  budget;
* :class:`Throttled` — sleep a fixed time per evaluated design, simulating
  expensive objective functions (used to exercise the optimization service
  and its benchmarks with realistic job durations);
* :class:`FailAfter` — deliberate fault injection: raise once an evaluation
  budget is crossed, so crash handling (worker failure, job-failed states)
  is testable through an ordinary problem spec string.

Example
-------
Stacked transforms keep the full metadata chain::

    >>> from repro.moo.testproblems import ZDT1
    >>> problem = Noisy(Normalized(ZDT1(n_var=4)), sigma=0.01)
    >>> problem.name
    'Noisy(Normalized(ZDT1))'
    >>> problem.n_var, problem.n_obj
    (4, 2)
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.exceptions import ConfigurationError, EvaluationError
from repro.problems.base import Problem
from repro.problems.batch import BatchEvaluation
from repro.problems.space import DesignSpace

__all__ = [
    "ProblemTransform",
    "Noisy",
    "Normalized",
    "ObjectiveSubset",
    "ConstraintAsPenalty",
    "BudgetCounting",
    "Throttled",
    "FailAfter",
]


class ProblemTransform(Problem):
    """Base class of all transforms: a Problem wrapping an inner Problem.

    Metadata (space, objectives, senses) is inherited from the wrapped
    problem unless the subclass overrides it, and :attr:`name` composes as
    ``Transform(inner-name)`` so stacked wrappers self-describe.
    """

    def __init__(
        self,
        inner: Problem,
        n_obj: int | None = None,
        objective_names: list[str] | None = None,
        objective_senses: list[int] | None = None,
        space: DesignSpace | None = None,
    ) -> None:
        super().__init__(
            n_obj=n_obj if n_obj is not None else inner.n_obj,
            objective_names=(
                objective_names
                if objective_names is not None
                else list(inner.objective_names)
            ),
            objective_senses=(
                objective_senses
                if objective_senses is not None
                else list(inner.objective_senses)
            ),
            space=space if space is not None else inner.space,
        )
        self.inner = inner

    @property
    def name(self) -> str:
        """Composed name: ``Transform(inner-name)``."""
        return "%s(%s)" % (type(self).__name__, self.inner.name)

    def cache_identity(self) -> dict:
        """Structural identity: the transform's parameters over the inner identity.

        The wrapped problem contributes its own identity recursively, and
        each transform mixes in exactly the parameters that change the
        computed objectives (:meth:`_transform_identity`).  Transforms that
        only add overhead or accounting — throttling, budget counting, fault
        injection — override :attr:`transparent_to_cache` instead and share
        entries with their inner problem outright, since their objective
        values are bitwise those of the wrapped problem.
        """
        if self.transparent_to_cache:
            return self.inner.cache_identity()
        identity = super().cache_identity()
        identity["inner"] = self.inner.cache_identity()
        identity["params"] = self._transform_identity()
        return identity

    #: True for wrappers whose objectives are bitwise the inner problem's
    #: (sleep, counting, fault injection): they share cache entries with the
    #: unwrapped problem.
    transparent_to_cache = False

    def _transform_identity(self) -> dict:
        """Parameters of this transform that change the computed objectives."""
        return {}


class Noisy(ProblemTransform):
    """Add deterministic Gaussian noise to the inner problem's objectives.

    The per-design noise vector is a pure function of ``(seed, x)`` — the
    decision vector's bytes seed a dedicated generator — so re-evaluating the
    same design yields the same noisy objectives in any process.  That keeps
    the evaluator invariants intact (pooled == serial, cache hits are exact)
    while still simulating measurement error across *different* designs.

    Parameters
    ----------
    inner:
        The noise-free problem.
    sigma:
        Standard deviation of the additive objective noise.
    seed:
        Noise-stream seed; two wrappers with different seeds produce
        different noise surfaces over the same inner problem.
    """

    def __init__(self, inner: Problem, sigma: float = 0.01, seed: int = 0) -> None:
        if sigma < 0:
            raise ConfigurationError("noise sigma must be non-negative")
        super().__init__(inner)
        self.sigma = float(sigma)
        self.seed = int(seed)

    def _transform_identity(self) -> dict:
        """Noise surface is determined by ``(sigma, seed)``."""
        return {"sigma": self.sigma, "seed": self.seed}

    def _noise(self, X: np.ndarray) -> np.ndarray:
        # Per row: one keyed blake2b digest of the decision bytes; the
        # Gaussian draws then come from the digest words via a vectorized
        # Box-Muller, so the batch path never constructs per-row generator
        # objects (a digest is ~1 µs, a Generator ~20 µs).
        n, m = X.shape[0], self.n_obj
        if m > 8:
            # A 64-byte digest yields at most 8 Gaussians; many-objective
            # noise falls back to per-row generators seeded from the digest.
            rows = np.empty((n, m))
            for index in range(n):
                digest = hashlib.blake2b(
                    np.ascontiguousarray(X[index], dtype=float).tobytes(),
                    digest_size=8,
                    key=str(self.seed).encode(),
                ).digest()
                rng = np.random.default_rng(int.from_bytes(digest, "little"))
                rows[index] = rng.normal(0.0, self.sigma, m)
            return rows
        n_pairs = (m + 1) // 2
        digest_size = 16 * n_pairs  # two uint64 words per Gaussian pair
        key = str(self.seed).encode()
        raw = bytearray()
        for index in range(n):
            raw += hashlib.blake2b(
                np.ascontiguousarray(X[index], dtype=float).tobytes(),
                digest_size=digest_size,
                key=key,
            ).digest()
        words = np.frombuffer(bytes(raw), dtype="<u8").reshape(n, 2 * n_pairs)
        # Top 53 bits -> uniforms; 1 - u keeps the log argument in (0, 1].
        u1 = (words[:, :n_pairs] >> np.uint64(11)).astype(float) * 2.0 ** -53
        u2 = (words[:, n_pairs:] >> np.uint64(11)).astype(float) * 2.0 ** -53
        radius = np.sqrt(-2.0 * np.log(1.0 - u1))
        angle = 2.0 * np.pi * u2
        gauss = np.empty((n, 2 * n_pairs))
        gauss[:, 0::2] = radius * np.cos(angle)
        gauss[:, 1::2] = radius * np.sin(angle)
        return self.sigma * gauss[:, :m]

    def _evaluate_matrix(self, X: np.ndarray) -> BatchEvaluation:
        batch = self.inner.evaluate_matrix(X)
        return BatchEvaluation(F=batch.F + self._noise(X), G=batch.G, info=batch.info)


class Normalized(ProblemTransform):
    """Expose the inner problem over the unit box ``[0, 1]^n_var``.

    Decision vectors are denormalized onto the inner bounds before
    evaluation, so optimizers see a dimensionless, well-scaled space — the
    usual cure for problems mixing axes of wildly different magnitude (the
    Geobacter fluxes span five orders).
    """

    def __init__(self, inner: Problem) -> None:
        super().__init__(
            inner,
            space=DesignSpace.continuous(
                np.zeros(inner.n_var),
                np.ones(inner.n_var),
                names=inner.space.names,
                units=inner.space.units,
            ),
        )

    def to_inner(self, X: np.ndarray) -> np.ndarray:
        """Map unit-box vector(s) onto the inner problem's bounds."""
        inner_X = self.inner.space.denormalize(X)
        if not self.inner.space.is_continuous:
            inner_X = self.inner.space.repair(inner_X)
        return inner_X

    def _evaluate_matrix(self, X: np.ndarray) -> BatchEvaluation:
        return self.inner.evaluate_matrix(self.to_inner(X))


class ObjectiveSubset(ProblemTransform):
    """Keep a subset of the inner problem's objectives.

    Parameters
    ----------
    inner:
        The full problem.
    indices:
        Objective indices to keep, in the requested order.
    """

    def __init__(self, inner: Problem, indices: list[int] | tuple[int, ...]) -> None:
        indices = tuple(int(i) for i in indices)
        if not indices:
            raise ConfigurationError("ObjectiveSubset needs at least one objective")
        if len(set(indices)) != len(indices):
            raise ConfigurationError("objective indices must be unique")
        for index in indices:
            if not 0 <= index < inner.n_obj:
                raise ConfigurationError(
                    "objective index %d outside [0, %d)" % (index, inner.n_obj)
                )
        super().__init__(
            inner,
            n_obj=len(indices),
            objective_names=[inner.objective_names[i] for i in indices],
            objective_senses=[inner.objective_senses[i] for i in indices],
        )
        self.indices = indices

    def _transform_identity(self) -> dict:
        """The kept objective indices (and their order) define the output."""
        return {"indices": list(self.indices)}

    def _evaluate_matrix(self, X: np.ndarray) -> BatchEvaluation:
        batch = self.inner.evaluate_matrix(X)
        return BatchEvaluation(
            F=batch.F[:, list(self.indices)], G=batch.G, info=batch.info
        )


class ConstraintAsPenalty(ProblemTransform):
    """Fold constraint violations into the objectives with weight ``rho``.

    Every objective of a violating design is worsened by ``rho`` times the
    aggregate violation, and the transformed problem reports itself as
    unconstrained — the classic penalty formulation for engines without
    constrained-dominance rules.
    """

    def __init__(self, inner: Problem, rho: float = 1000.0) -> None:
        if rho < 0:
            raise ConfigurationError("penalty weight rho must be non-negative")
        super().__init__(inner)
        self.rho = float(rho)

    def _transform_identity(self) -> dict:
        """The penalty weight scales the folded-in violations."""
        return {"rho": self.rho}

    def _evaluate_matrix(self, X: np.ndarray) -> BatchEvaluation:
        batch = self.inner.evaluate_matrix(X)
        return BatchEvaluation(
            F=batch.F + self.rho * batch.total_violations[:, None],
            info=batch.info,
        )


class BudgetCounting(ProblemTransform):
    """Count evaluations of the inner problem, optionally enforcing a budget.

    Parameters
    ----------
    inner:
        The problem whose evaluations are counted.
    max_evaluations:
        Optional hard cap; exceeding it raises
        :class:`~repro.exceptions.EvaluationError` *before* the offending
        batch is evaluated, so the counter never overshoots.

    Notes
    -----
    The counter lives in this process — under a
    :class:`~repro.runtime.evaluator.ProcessPoolEvaluator` the workers count
    their own copies, so use the optimizer's ``evaluations`` counter or the
    runtime ledger for pooled runs.
    """

    transparent_to_cache = True

    def __init__(self, inner: Problem, max_evaluations: int | None = None) -> None:
        if max_evaluations is not None and max_evaluations < 1:
            raise ConfigurationError("max_evaluations must be positive")
        super().__init__(inner)
        self.max_evaluations = max_evaluations
        self.evaluations = 0

    def _evaluate_matrix(self, X: np.ndarray) -> BatchEvaluation:
        if (
            self.max_evaluations is not None
            and self.evaluations + X.shape[0] > self.max_evaluations
        ):
            raise EvaluationError(
                "evaluation budget exhausted: %d used, %d requested, cap %d"
                % (self.evaluations, X.shape[0], self.max_evaluations)
            )
        self.evaluations += X.shape[0]
        return self.inner.evaluate_matrix(X)

    @property
    def remaining(self) -> int | None:
        """Evaluations left under the cap (``None`` without a cap)."""
        if self.max_evaluations is None:
            return None
        return max(0, self.max_evaluations - self.evaluations)

    def reset(self) -> None:
        """Reset the evaluation counter to zero."""
        self.evaluations = 0


class Throttled(ProblemTransform):
    """Sleep a fixed wall-clock time per evaluated design.

    The transform makes any cheap test problem behave like an expensive one
    without changing its objectives: a batch of ``n`` designs costs an extra
    ``n * delay`` seconds before the inner evaluation runs.  That is exactly
    what the optimization service (:mod:`repro.serve`) and its benchmarks
    need — jobs whose duration is controlled, so queueing, cancellation and
    worker scaling are observable — while the returned values stay bitwise
    identical to the unthrottled problem.

    Parameters
    ----------
    inner:
        The problem to slow down.
    delay:
        Seconds of sleep per evaluated design (a batch of ``n`` sleeps
        ``n * delay`` once, not per row).

    Example
    -------
    >>> from repro.moo.testproblems import ZDT1
    >>> Throttled(ZDT1(n_var=4), delay=0.0).name
    'Throttled(ZDT1)'
    """

    transparent_to_cache = True

    def __init__(self, inner: Problem, delay: float = 0.01) -> None:
        if delay < 0:
            raise ConfigurationError("throttle delay must be non-negative")
        super().__init__(inner)
        self.delay = float(delay)

    def _evaluate_matrix(self, X: np.ndarray) -> BatchEvaluation:
        if self.delay > 0.0:
            import time

            time.sleep(self.delay * X.shape[0])
        return self.inner.evaluate_matrix(X)


class FailAfter(ProblemTransform):
    """Raise :class:`~repro.exceptions.EvaluationError` after a budget.

    Deliberate fault injection: the first ``max_evaluations`` submitted
    designs evaluate normally, then every further batch raises *before*
    touching the inner problem.  Service and runtime tests use it (through
    the ``fail_after`` spec key) to exercise crash paths — a worker process
    dying mid-run, a job ending in the ``failed`` state — with an ordinary
    registry problem.

    Parameters
    ----------
    inner:
        The problem evaluated until the budget is crossed.
    max_evaluations:
        Designs evaluated successfully before the transform starts raising.

    Example
    -------
    >>> import numpy as np
    >>> from repro.moo.testproblems import ZDT1
    >>> problem = FailAfter(ZDT1(n_var=4), max_evaluations=1)
    >>> _ = problem.evaluate_matrix(np.full((1, 4), 0.5))
    >>> problem.evaluate_matrix(np.full((1, 4), 0.5))
    Traceback (most recent call last):
        ...
    repro.exceptions.EvaluationError: deliberate failure injected after 1 evaluations (fail_after=1)
    """

    transparent_to_cache = True

    def __init__(self, inner: Problem, max_evaluations: int = 0) -> None:
        if max_evaluations < 0:
            raise ConfigurationError("fail_after budget must be non-negative")
        super().__init__(inner)
        self.max_evaluations = int(max_evaluations)
        self.evaluations = 0

    def _evaluate_matrix(self, X: np.ndarray) -> BatchEvaluation:
        if self.evaluations + X.shape[0] > self.max_evaluations:
            raise EvaluationError(
                "deliberate failure injected after %d evaluations (fail_after=%d)"
                % (self.evaluations, self.max_evaluations)
            )
        self.evaluations += X.shape[0]
        return self.inner.evaluate_matrix(X)
