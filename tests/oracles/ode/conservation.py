"""Conserved-moiety analysis of kinetic networks.

The C3 model conserves total phosphate and total adenylate/pyridine pools; the
paper additionally treats total protein nitrogen as a conserved resource that
the optimizer redistributes.  This module finds the left null space of the
stoichiometric matrix (the conservation relations) and provides helpers to
check that a simulation respects them — a cheap but powerful way to catch
modelling mistakes and a natural target for property-based tests.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DimensionError
from tests.oracles.ode.network import KineticNetwork

__all__ = [
    "conservation_relations",
    "conserved_totals",
    "check_conservation",
]


def conservation_relations(network: KineticNetwork, tolerance: float = 1e-10) -> np.ndarray:
    """Conserved moieties of a network.

    Returns a matrix whose rows ``g`` satisfy ``g @ N = 0`` for the
    stoichiometric matrix ``N`` over the dynamic metabolites; each row defines
    a linear combination of concentrations that is invariant along any
    trajectory of the kinetic model.  Rows are orthonormal (they come from an
    SVD of ``N^T``).
    """
    matrix = network.stoichiometric_matrix()
    if matrix.size == 0:
        return np.empty((0, 0))
    _, singular_values, v_transposed = np.linalg.svd(matrix.T)
    rank = int(np.sum(singular_values > tolerance * max(matrix.shape)))
    null_space = v_transposed[rank:]
    return null_space


def conserved_totals(relations: np.ndarray, concentrations: np.ndarray) -> np.ndarray:
    """Value of each conservation relation at the given concentration vector."""
    relations = np.asarray(relations, dtype=float)
    concentrations = np.asarray(concentrations, dtype=float)
    if relations.size == 0:
        return np.empty(0)
    if relations.shape[1] != concentrations.shape[-1]:
        raise DimensionError(
            "conservation relations expect %d species, got %d"
            % (relations.shape[1], concentrations.shape[-1])
        )
    return relations @ concentrations


def check_conservation(
    relations: np.ndarray,
    trajectory: np.ndarray,
    rtol: float = 1e-3,
    atol: float = 1e-6,
) -> bool:
    """Check that every conservation relation is constant along a trajectory.

    Parameters
    ----------
    relations:
        Output of :func:`conservation_relations`.
    trajectory:
        Concentration matrix of shape ``(n_times, n_species)``.
    """
    relations = np.asarray(relations, dtype=float)
    trajectory = np.asarray(trajectory, dtype=float)
    if relations.size == 0 or trajectory.size == 0:
        return True
    values = trajectory @ relations.T
    reference = values[0]
    return bool(
        np.all(np.abs(values - reference) <= atol + rtol * np.abs(reference))
    )
