"""Composable termination criteria for solver runs.

Before the :mod:`repro.solve` redesign every engine took a positional
``generations`` (or ``max_evaluations``) argument and each budget style needed
its own ``run_*`` method.  Termination is now a first-class object: the
generic driver asks ``termination.should_stop(progress)`` before every
generation, so any stopping rule — fixed budgets, wall-clock limits,
convergence detection, or user-defined criteria — plugs into every solver.

Criteria compose with the bitwise operators:

* ``a | b`` stops when **either** criterion fires (budget *or* convergence);
* ``a & b`` stops only when **both** have fired.

Example
-------
Stop after 500 generations, 60 seconds, or once the hypervolume stalls —
whichever comes first::

    termination = MaxGenerations(500) | WallClock(60.0) | HypervolumeStagnation(20)
    result = solve(problem, algorithm="pmo2", termination=termination, seed=7)

A plain ``int`` is accepted anywhere a termination is expected and means
``MaxGenerations(n)``.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from repro.exceptions import ConfigurationError
from repro.solve.events import RunProgress

__all__ = [
    "Termination",
    "MaxGenerations",
    "MaxEvaluations",
    "WallClock",
    "HypervolumeStagnation",
    "AnyOf",
    "AllOf",
    "as_termination",
]


class Termination(abc.ABC):
    """Base class of all termination criteria.

    A criterion is a small state machine: :meth:`reset` is called once when a
    run starts, then :meth:`should_stop` before every generation with a
    :class:`~repro.solve.events.RunProgress` snapshot.  Criteria combine with
    ``|`` (stop when any fires) and ``&`` (stop when all have fired).
    """

    def reset(self) -> None:
        """Clear internal state; called by the driver when a run starts."""

    @abc.abstractmethod
    def should_stop(self, progress: RunProgress) -> bool:
        """Return ``True`` when the run should stop before the next generation."""

    def __or__(self, other: "Termination") -> "AnyOf":
        return AnyOf(self, other)

    def __and__(self, other: "Termination") -> "AllOf":
        return AllOf(self, other)


class MaxGenerations(Termination):
    """Stop once the solver has completed a number of generations.

    With checkpoint/resume the bound is the *total* target: a run restored at
    generation 300 with ``MaxGenerations(500)`` performs the missing 200.
    """

    def __init__(self, generations: int) -> None:
        if generations < 0:
            raise ConfigurationError("generations must be non-negative")
        self.generations = int(generations)

    def should_stop(self, progress: RunProgress) -> bool:
        """Stop when the generation counter has reached the bound."""
        return progress.generation >= self.generations

    def __repr__(self) -> str:
        return "MaxGenerations(%d)" % self.generations


class MaxEvaluations(Termination):
    """Stop at the first generation boundary meeting an evaluation budget.

    This is the equal-budget comparison mode of the paper's Table 1: the
    check happens between generations, so the budget may be exceeded by at
    most one generation's worth of evaluations.
    """

    def __init__(self, evaluations: int) -> None:
        if evaluations <= 0:
            raise ConfigurationError("max_evaluations must be positive")
        self.evaluations = int(evaluations)

    def should_stop(self, progress: RunProgress) -> bool:
        """Stop when the evaluation counter has met the budget."""
        return progress.evaluations >= self.evaluations

    def __repr__(self) -> str:
        return "MaxEvaluations(%d)" % self.evaluations


class WallClock(Termination):
    """Stop at the first generation boundary after a wall-clock budget.

    Wall-clock termination is inherently machine-dependent, so runs bounded
    only by it are **not** reproducible across hosts; combine it with a
    deterministic criterion (``MaxGenerations(n) | WallClock(s)``) when the
    result feeds a comparison.
    """

    def __init__(self, seconds: float) -> None:
        if not (math.isfinite(seconds) and seconds > 0):
            raise ConfigurationError("wall-clock budget must be positive and finite")
        self.seconds = float(seconds)

    def should_stop(self, progress: RunProgress) -> bool:
        """Stop when the elapsed run time has reached the budget."""
        return progress.elapsed >= self.seconds

    def __repr__(self) -> str:
        return "WallClock(%.3f)" % self.seconds


class HypervolumeStagnation(Termination):
    """Stop when the front's hypervolume stops improving.

    The criterion tracks the hypervolume of the non-dominated front against a
    reference point fixed on first sight (component-wise front maximum plus a
    10 % margin, matching :func:`repro.moo.metrics.hypervolume`'s default) and
    stops once ``patience`` consecutive generations improved it by less than
    ``tolerance`` (relative).  Because the archive-backed front only ever
    improves, the tracked hypervolume is monotone and the criterion cannot
    oscillate.

    Parameters
    ----------
    patience:
        Consecutive non-improving generations tolerated before stopping.
    tolerance:
        Minimum relative hypervolume gain that counts as an improvement.
    reference:
        Optional explicit reference point (one entry per objective); fixes
        the comparison across runs instead of deriving it from the first
        front seen.
    """

    def __init__(
        self,
        patience: int = 20,
        tolerance: float = 1e-9,
        reference: np.ndarray | None = None,
    ) -> None:
        if patience < 1:
            raise ConfigurationError("patience must be at least 1")
        if not (math.isfinite(tolerance) and tolerance >= 0.0):
            raise ConfigurationError("tolerance must be non-negative and finite")
        self.patience = int(patience)
        self.tolerance = float(tolerance)
        self.reference = None if reference is None else np.asarray(reference, dtype=float)
        self._fixed_reference: np.ndarray | None = None
        self._best: float | None = None
        self._stale = 0

    def reset(self) -> None:
        """Forget the tracked hypervolume and the derived reference point."""
        self._fixed_reference = None
        self._best = None
        self._stale = 0

    def should_stop(self, progress: RunProgress) -> bool:
        """Stop after ``patience`` generations without hypervolume gain."""
        from repro.moo.metrics import hypervolume

        front = progress.front
        if len(front) == 0:
            return False
        objectives = front.F
        if self._fixed_reference is None:
            if self.reference is not None:
                self._fixed_reference = self.reference
            else:
                span = objectives.max(axis=0) - objectives.min(axis=0)
                span = np.where(span <= 0, 1.0, span)
                self._fixed_reference = objectives.max(axis=0) + 0.1 * span
        value = hypervolume(objectives, self._fixed_reference)
        if self._best is None:
            self._best = value
            self._stale = 0
            return False
        gain = value - self._best
        threshold = self.tolerance * max(abs(self._best), 1e-12)
        if gain > threshold:
            self._best = value
            self._stale = 0
        else:
            self._stale += 1
        return self._stale >= self.patience

    def __repr__(self) -> str:
        return "HypervolumeStagnation(patience=%d, tolerance=%g)" % (
            self.patience,
            self.tolerance,
        )


class _Combined(Termination):
    """Shared machinery of the ``|`` / ``&`` combinators."""

    _symbol = "?"

    def __init__(self, *criteria: Termination) -> None:
        flattened: list[Termination] = []
        for criterion in criteria:
            if not isinstance(criterion, Termination):
                raise ConfigurationError(
                    "terminations combine only with other terminations, got %r"
                    % (criterion,)
                )
            if type(criterion) is type(self):
                flattened.extend(criterion.criteria)  # type: ignore[attr-defined]
            else:
                flattened.append(criterion)
        if not flattened:
            raise ConfigurationError("a combined termination needs at least one criterion")
        self.criteria: tuple[Termination, ...] = tuple(flattened)

    def reset(self) -> None:
        """Reset every combined criterion."""
        for criterion in self.criteria:
            criterion.reset()

    def __repr__(self) -> str:
        return "(%s)" % (" %s " % self._symbol).join(repr(c) for c in self.criteria)


class AnyOf(_Combined):
    """Stop when **any** combined criterion fires (the ``|`` operator).

    Every criterion is evaluated each generation (no short-circuiting), so
    stateful criteria such as :class:`HypervolumeStagnation` keep tracking
    even while another criterion is the one close to firing.
    """

    _symbol = "|"

    def should_stop(self, progress: RunProgress) -> bool:
        """Stop when at least one criterion wants to stop."""
        results = [criterion.should_stop(progress) for criterion in self.criteria]
        return any(results)


class AllOf(_Combined):
    """Stop only when **all** combined criteria have fired (the ``&`` operator).

    Latching: a criterion that fired once stays fired for the rest of the
    run, so ``MaxGenerations(100) & HypervolumeStagnation(10)`` stops at the
    first generation where *both* have been satisfied at some point, even if
    a momentary condition (a wall-clock check, say) is no longer true.
    """

    _symbol = "&"

    def __init__(self, *criteria: Termination) -> None:
        super().__init__(*criteria)
        self._latched = [False] * len(self.criteria)

    def reset(self) -> None:
        """Reset the latches and every combined criterion."""
        super().reset()
        self._latched = [False] * len(self.criteria)

    def should_stop(self, progress: RunProgress) -> bool:
        """Stop once every criterion has fired at least once."""
        for index, criterion in enumerate(self.criteria):
            if criterion.should_stop(progress):
                self._latched[index] = True
        return all(self._latched)


def as_termination(value: "Termination | int | None") -> Termination:
    """Coerce user input into a :class:`Termination`.

    ``Termination`` instances pass through, a plain ``int`` becomes
    :class:`MaxGenerations`, and ``None`` is a configuration error (a run
    must have a stopping rule).

    Example
    -------
    >>> as_termination(25)
    MaxGenerations(25)
    """
    if isinstance(value, Termination):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return MaxGenerations(int(value))
    if value is None:
        raise ConfigurationError(
            "a termination is required: pass termination=MaxGenerations(n) "
            "(or a plain int) to bound the run"
        )
    raise ConfigurationError(
        "termination must be a Termination or an int, got %r" % (value,)
    )
