"""Shared configuration-validation helpers with uniform error messages.

The solver configurations (``NSGA2Config``, ``MOEADConfig``, ``PMO2Config``)
and the ``MigrationPolicy`` used to carry near-identical hand-written
``validate()`` bodies; these helpers
deduplicate the range/choice/probability checks and make every message read
the same way (``"<field> must be ..., got <value>"``), so a misconfiguration
reported by any solver looks identical to the user.

All helpers raise :class:`~repro.exceptions.ConfigurationError` on failure
and return ``None`` on success.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.exceptions import ConfigurationError

__all__ = [
    "check",
    "check_at_least",
    "check_positive",
    "check_even",
    "check_probability",
    "check_choice",
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
