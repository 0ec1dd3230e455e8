"""The shared parameter-schema primitive used by every registry.

:class:`Parameter` describes one typed, defaulted knob of a registered
object — an experiment (:mod:`repro.core.registry`), a problem
(:mod:`repro.problems.registry`) or a transform.  It lives in this low-level
module (like :mod:`repro.naming`) so that every registry can import it
without pulling in another subsystem's package.

Example
-------
>>> Parameter("seed", int, 2011, "master random seed").cli_flag
'--seed'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.exceptions import ConfigurationError

__all__ = ["Parameter", "resolve_parameters"]

_TRUE_STRINGS = {"1", "true", "yes", "on"}
_FALSE_STRINGS = {"0", "false", "no", "off"}


@dataclass(frozen=True)
class Parameter:
    """One knob of a registered object's parameter schema.

    The schema drives both validation and the command-line interface, which
    turns each parameter into a ``--flag`` (underscores become dashes,
    booleans become switches).

    Example
    -------
    >>> Parameter("n_var", int, 30, "number of variables").coerce("10")
    10
    """

    #: Keyword-argument name of the underlying factory or function.
    name: str
    #: Python type of the value (``int``, ``float``, ``bool`` or ``str``).
    type: type
    #: Default used when the caller does not supply the parameter.
    default: Any
    #: One-line description shown by the describe commands.
    help: str = ""

    @property
    def cli_flag(self) -> str:
        """Command-line flag corresponding to this parameter."""
        return "--" + self.name.replace("_", "-")

    def coerce(self, value: Any) -> Any:
        """Convert ``value`` to the parameter's type (``None`` passes through).

        Strings are parsed, so spec-string fragments, JSON payloads and
        keyword arguments coerce alike: ``"false"`` / ``"0"`` / ``"no"`` /
        ``"off"`` are ``False`` for a boolean.  Nothing is truncated: an
        integer refuses a boolean or a fractional float (``3.0`` is fine),
        and a boolean accepts only booleans, those strings and the integers
        0 and 1.  A value that does not convert raises
        :class:`~repro.exceptions.ConfigurationError` naming the parameter.
        """
        if value is None:
            return None
        if self.type is bool:
            # An int reads as its digits (so only 0 and 1 pass), a bool as
            # "true"/"false"; anything else, floats included, is refused.
            text = str(value).lower() if isinstance(value, (str, int)) else ""
            if text in _TRUE_STRINGS:
                return True
            if text in _FALSE_STRINGS:
                return False
            raise ConfigurationError(
                "cannot parse %r as a boolean for %r" % (value, self.name)
            )
        lossy = isinstance(value, bool) or (isinstance(value, float) and not value.is_integer())
        if not (self.type is int and lossy):
            try:
                return self.type(value)
            except (TypeError, ValueError, OverflowError):
                pass
        raise ConfigurationError(
            "cannot parse %r as %s for parameter %r"
            % (value, self.type.__name__, self.name)
        )


def resolve_parameters(
    parameters: Iterable[Parameter], overrides: dict[str, Any], owner: str
) -> dict[str, Any]:
    """Merge coerced ``overrides`` into the schema defaults of ``parameters``.

    Unknown names raise :class:`~repro.exceptions.ConfigurationError`
    mentioning ``owner`` (``"experiment 'x'"``, ``"problem 'y'"``).

    Example
    -------
    >>> resolve_parameters([Parameter("n_var", int, 30)], {"n_var": "5"}, "problem 'zdt1'")
    {'n_var': 5}
    """
    known = {parameter.name: parameter for parameter in parameters}
    unknown = sorted(set(overrides) - set(known))
    if unknown:
        raise ConfigurationError(
            "unknown parameter(s) %s for %s (known: %s)"
            % (", ".join(unknown), owner, ", ".join(sorted(known)) or "none")
        )
    merged = {name: parameter.default for name, parameter in known.items()}
    for name, value in overrides.items():
        merged[name] = known[name].coerce(value)
    return merged
