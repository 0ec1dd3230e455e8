"""C3 photosynthesis carbon-metabolism case study (Sec. 3.1 of the paper).

Public surface:

* :data:`~repro.photosynthesis.enzymes.ENZYMES` — the 23 tunable enzymes;
* :class:`~repro.photosynthesis.conditions.EnvironmentalCondition` and the
  paper's six Ci / export scenarios;
* :class:`~repro.photosynthesis.steady_state.EnzymeLimitedModel` — the fast
  CO2-uptake evaluator used inside the optimizer;
* :class:`~repro.photosynthesis.problem.PhotosynthesisProblem` — the
  uptake-versus-nitrogen design problem;
* :mod:`~repro.photosynthesis.candidates` — extraction of the paper's named
  candidates (B, A2) and the Figure 2 enzyme-ratio profile;
* :mod:`~repro.photosynthesis.nitrogen` — protein-nitrogen accounting.
"""

from repro.photosynthesis.candidates import (
    CandidateDesign,
    candidate_a2,
    candidate_b,
    cheapest_design_with_uptake,
    enzyme_ratio_profile,
)
from repro.photosynthesis.conditions import (
    CI_VALUES,
    FUTURE,
    PAPER_CONDITIONS,
    PAST,
    PRESENT,
    REFERENCE_CONDITION,
    TRIOSE_EXPORT_HIGH,
    TRIOSE_EXPORT_LOW,
    EnvironmentalCondition,
    condition,
)
from repro.photosynthesis.enzymes import (
    ENZYME_NAMES,
    ENZYMES,
    Enzyme,
    enzyme_index,
    natural_activities,
)
from repro.photosynthesis.nitrogen import (
    NATURAL_NITROGEN,
    nitrogen_cost_vector,
    total_nitrogen,
)
from repro.photosynthesis.problem import PhotosynthesisProblem, RobustPhotosynthesisProblem
from repro.photosynthesis.steady_state import EnzymeLimitedModel, UptakeBreakdown

__all__ = [
    "CandidateDesign",
    "candidate_a2",
    "candidate_b",
    "cheapest_design_with_uptake",
    "enzyme_ratio_profile",
    "CI_VALUES",
    "FUTURE",
    "PAPER_CONDITIONS",
    "PAST",
    "PRESENT",
    "REFERENCE_CONDITION",
    "TRIOSE_EXPORT_HIGH",
    "TRIOSE_EXPORT_LOW",
    "EnvironmentalCondition",
    "condition",
    "ENZYME_NAMES",
    "ENZYMES",
    "Enzyme",
    "enzyme_index",
    "natural_activities",
    "NATURAL_NITROGEN",
    "nitrogen_cost_vector",
    "total_nitrogen",
    "PhotosynthesisProblem",
    "RobustPhotosynthesisProblem",
    "EnzymeLimitedModel",
    "UptakeBreakdown",
]
