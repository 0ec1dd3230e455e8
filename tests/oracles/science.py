"""Per-design reference evaluations of the science problems.

These are the per-row routines the science problems had before they became
matrix-only: one design at a time, through the scalar model calls, each
returning an ``(objectives, violations)`` row.
``tests/problems/test_science_parity.py`` stacks the rows and asserts that
each problem's ``evaluate_matrix`` reproduces them bit for bit.

The module lives outside the installed package; it exists for
verification only.
"""

from __future__ import annotations

import numpy as np

from repro.geobacter.model_builder import BIOMASS_ID, ELECTRON_PRODUCTION_ID
from repro.geobacter.problem import GeobacterDesignProblem
from repro.moo.robustness import uptake_yield
from repro.photosynthesis.nitrogen import total_nitrogen
from repro.photosynthesis.problem import PhotosynthesisProblem, RobustPhotosynthesisProblem
from tests.oracles.fba import reference_constraint_violation

#: One design's evaluation: objectives and constraint violations.
Row = tuple[np.ndarray, np.ndarray]

__all__ = [
    "evaluate_row",
    "geobacter_row",
    "photosynthesis_row",
    "robust_photosynthesis_row",
]


def photosynthesis_row(problem: PhotosynthesisProblem, x: np.ndarray) -> Row:
    """Uptake through the model's scalar ``co2_uptake``, nitrogen per design."""
    activities = problem.validate(x)
    uptake = problem.model.co2_uptake(activities)
    nitrogen = total_nitrogen(activities)
    return np.array([-uptake, nitrogen]), np.empty(0)


def robust_photosynthesis_row(
    problem: RobustPhotosynthesisProblem, x: np.ndarray
) -> Row:
    """The yield ensemble of one design, every trial through scalar ``co2_uptake``."""
    activities = problem.validate(x)
    report = uptake_yield(
        activities,
        lambda X: np.array([problem.model.co2_uptake(row) for row in X]),
        settings=problem.settings,
    )
    uptake, yield_percentage = report.nominal_value, report.yield_percentage
    nitrogen = total_nitrogen(activities)
    return np.array([-uptake, nitrogen, -yield_percentage]), np.empty(0)


def geobacter_row(problem: GeobacterDesignProblem, x: np.ndarray) -> Row:
    """Productions and the steady-state violation from a freshly built ``S``."""
    fluxes = problem.validate(x)
    electron = float(fluxes[problem.model.reaction_index(ELECTRON_PRODUCTION_ID)])
    biomass = float(fluxes[problem.model.reaction_index(BIOMASS_ID)])
    violation = reference_constraint_violation(problem.model, fluxes, problem.violation_norm)
    return (
        np.array([-electron, -biomass]),
        np.array([max(0.0, violation - problem.violation_tolerance)]),
    )


#: The reference row evaluation of each science problem class.
_ROWS = {
    PhotosynthesisProblem: photosynthesis_row,
    RobustPhotosynthesisProblem: robust_photosynthesis_row,
    GeobacterDesignProblem: geobacter_row,
}


def evaluate_row(problem, x: np.ndarray) -> Row:
    """The reference evaluation of one design of any science problem."""
    return _ROWS[type(problem)](problem, x)
