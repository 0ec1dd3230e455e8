"""Shared configuration-validation helpers with uniform error messages.

The solver configurations (``NSGA2Config``, ``MOEADConfig``, ``PMO2Config``)
share these range/choice/probability checks, so every message reads the
same way (``"<field> must be ..., got <value>"``) and a misconfiguration
reported by any solver looks identical to the user.

The box checks hold a problem, or an initial population, to what the
variation operators need: finite bounds, and rows inside them.

All helpers raise :class:`~repro.exceptions.ConfigurationError` on failure
and return ``None`` on success.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.problems.base import Problem

__all__ = [
    "check",
    "check_at_least",
    "check_positive",
    "check_even",
    "check_probability",
    "check_choice",
    "check_finite_box",
    "check_population_in_box",
]


def check(condition: bool, message: str) -> None:
    """Raise :class:`ConfigurationError` with ``message`` unless ``condition``."""
    if not condition:
        raise ConfigurationError(message)


def check_at_least(name: str, value: float, minimum: float) -> None:
    """Require ``value >= minimum``.

    Example
    -------
    >>> check_at_least("population_size", 8, 4)
    """
    if value < minimum:
        raise ConfigurationError(
            "%s must be at least %s, got %s" % (name, minimum, value)
        )


def check_positive(name: str, value: float) -> None:
    """Require ``value > 0`` (NaN fails too)."""
    if not value > 0:
        raise ConfigurationError("%s must be positive, got %s" % (name, value))


def check_even(name: str, value: int) -> None:
    """Require an even integer (crossover pairs must align)."""
    if value % 2 != 0:
        raise ConfigurationError("%s must be even, got %s" % (name, value))


def check_probability(name: str, value: float | None, allow_none: bool = False) -> None:
    """Require ``value`` in ``[0, 1]`` (optionally tolerating ``None``)."""
    if value is None:
        if allow_none:
            return
        raise ConfigurationError("%s must be in [0, 1], got None" % name)
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError("%s must be in [0, 1], got %s" % (name, value))


def check_choice(name: str, value: Any, choices: Sequence[Any]) -> None:
    """Require ``value`` to be one of ``choices``."""
    if value not in choices:
        raise ConfigurationError(
            "%s must be one of %s, got %r"
            % (name, ", ".join(repr(choice) for choice in choices), value)
        )


def _names(problem: "Problem", bad: np.ndarray) -> str:
    return ", ".join(problem.names[i] for i in np.flatnonzero(bad))


def check_finite_box(problem: "Problem") -> None:
    """Require finite bounds on every variable (zero spans are fine)."""
    bad = ~(np.isfinite(problem.lower_bounds) & np.isfinite(problem.upper_bounds))
    if bad.any():
        raise ConfigurationError(
            "the optimizers need a finite box; non-finite bounds on %s" % _names(problem, bad)
        )


def check_population_in_box(problem: "Problem", X: np.ndarray) -> None:
    """Require every row of ``X`` to be finite and inside ``problem``'s box."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != problem.n_var:
        raise ConfigurationError(
            "an initial population needs %d columns, got shape %r" % (problem.n_var, X.shape)
        )
    inside = (problem.lower_bounds <= X) & (X <= problem.upper_bounds)
    bad = ~inside.all(axis=0)
    if bad.any():
        raise ConfigurationError(
            "an initial population must be finite and inside the box; it is not on %s"
            % _names(problem, bad)
        )
