"""Constraint-based modelling substrate (COBRA-toolbox replacement).

Provides stoichiometric models, flux balance analysis and flux variability
analysis on top of :func:`scipy.optimize.linprog`, plus the batched
steady-state and bound violation screens, which is all the paper's
Geobacter case study needs from the COBRA toolbox.

The public names below resolve on first access, so building a model or
screening a population for violations never loads scipy; only the LP
solvers (:mod:`repro.fba.solver`, :mod:`repro.fba.variability`) import it.
"""

import importlib

#: Public name -> module defining it, resolved by :func:`__getattr__`.
_EXPORTS = {
    "LPAssembly": "repro.fba.solver",
    "assemble_lp": "repro.fba.solver",
    "bound_violations": "repro.fba.batch",
    "steady_state_violations": "repro.fba.batch",
    "Metabolite": "repro.fba.metabolite",
    "StoichiometricModel": "repro.fba.model",
    "DEFAULT_BOUND": "repro.fba.reaction",
    "Reaction": "repro.fba.reaction",
    "FBASolution": "repro.fba.solver",
    "flux_balance_analysis": "repro.fba.solver",
    "optimize_combination": "repro.fba.solver",
    "FluxRange": "repro.fba.variability",
    "flux_variability_analysis": "repro.fba.variability",
}


def __getattr__(name: str):
    """Import the module that defines ``name`` and return the attribute."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__all__ = list(_EXPORTS)
