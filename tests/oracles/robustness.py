"""The scalar robustness condition of Eq. 3.

``rho(x, x*, f, eps)`` is 1 when the property of the perturbed design ``x*``
stays within ``eps`` of the nominal value ``f(x)`` and 0 otherwise.  The
package never evaluates it one trial at a time: ``repro.moo.robustness``
counts robust trials over whole ensembles in one vectorized comparison.
``tests/moo/test_robustness.py`` holds that count (and the yield Γ of Eq. 4,
the mean of ``rho`` over the ensemble) to this definition.  The module lives
outside the installed package; it exists for verification only.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError

__all__ = ["robustness_condition"]


def robustness_condition(
    nominal_value: float,
    perturbed_value: float,
    epsilon: float,
    relative: bool = True,
) -> int:
    """Robustness condition ``rho`` (Eq. 3).

    Parameters
    ----------
    nominal_value:
        Property value of the unperturbed design, ``f(x)``.
    perturbed_value:
        Property value of the perturbed design, ``f(x*)``.
    epsilon:
        Robustness threshold.  With ``relative=True`` (the paper's convention:
        "epsilon = 5 % of the nominal uptake rate") the threshold is
        ``epsilon * |nominal_value|``; otherwise it is used as an absolute
        tolerance.
    """
    if epsilon < 0:
        raise ConfigurationError("epsilon must be non-negative")
    threshold = epsilon * abs(nominal_value) if relative else epsilon
    return 1 if abs(nominal_value - perturbed_value) <= threshold else 0
