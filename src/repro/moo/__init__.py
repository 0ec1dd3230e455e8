"""Multi-objective optimization toolkit (the paper's primary contribution).

The sub-package provides:

* :mod:`repro.moo.individual` / :mod:`repro.moo.archive` — individuals,
  populations with their cached ``X`` / ``F`` / ``CV`` matrix views, and the
  Pareto archive, which holds its members in a population and shares them;
* :mod:`repro.moo.nsga2` / :mod:`repro.moo.moead` — the two evolutionary
  engines (NSGA-II is PMO2's island engine, MOEA/D the Table 1 baseline);
* :mod:`repro.moo.archipelago` / :mod:`repro.moo.topology` — the island
  model; :mod:`repro.moo.pmo2` — the PMO2 configuration and
  :func:`build_pmo2`, the builder of the paper's archipelago;
* :mod:`repro.moo.metrics` — hypervolume and the paper's Gp / Rp coverage
  indicators;
* :mod:`repro.moo.mining` — closest-to-ideal, Pareto Relative Minimum, shadow
  minima and equally spaced front sampling;
* :mod:`repro.moo.robustness` — the robustness condition rho, the yield Gamma
  and the Monte-Carlo perturbation ensembles, evaluated through one matrix
  property function per call;
* :mod:`repro.moo.kernels` — the vectorized, constraint-aware dominance /
  sorting / crowding / archive-prune kernels on ``(n, m)`` objective
  matrices that every routine above runs on (the naive reference
  implementations the equivalence tests and benchmarks hold them to live
  outside the package, in ``tests/oracles/``);
* :mod:`repro.moo.testproblems` — synthetic validation problems.

The engines implement the :class:`repro.solve.Solver` protocol and run
through :func:`repro.solve.solve`, which attaches an evaluator from
:mod:`repro.runtime` (process pools, memoization) and a
:class:`repro.runtime.CheckpointManager` for kill-safe resumable runs;
neither changes results for a fixed seed.  The problem contract lives in
:mod:`repro.problems`; :class:`Problem`, :class:`FunctionalProblem` and
:class:`EvaluationResult` are re-exported here.
"""

from repro.moo import kernels
from repro.moo.archipelago import Archipelago, Island, MigrationPolicy
from repro.moo.archive import ParetoArchive
from repro.moo.kernels import (
    archive_prune,
    constrained_domination_blocks,
    constrained_domination_matrix,
    crowding_distances,
    crowding_truncation_order,
    domination_matrix,
    non_dominated_mask,
    nondominated_sort,
    tournament_winner,
)
from repro.moo.individual import Individual, Population
from repro.moo.metrics import (
    coverage_report,
    global_pareto_coverage,
    hypervolume,
    inverted_generational_distance,
    relative_pareto_coverage,
    union_front,
)
from repro.moo.mining import (
    FrontSelection,
    closest_to_ideal,
    equally_spaced_selection,
    ideal_point,
    knee_point,
    mine_front,
    pareto_relative_minimum,
    shadow_minima,
)
from repro.moo.moead import MOEAD, MOEADConfig
from repro.moo.nsga2 import NSGA2, NSGA2Config, assign_ranks_and_crowding
from repro.moo.pmo2 import PMO2Config, build_pmo2
from repro.moo.robustness import (
    PerturbationModel,
    RobustnessReport,
    RobustnessSettings,
    front_yields,
    local_yields,
    robustness_condition,
    uptake_yield,
)
from repro.moo.topology import (
    AllToAllTopology,
    IsolatedTopology,
    RandomTopology,
    RingTopology,
    StarTopology,
    Topology,
    topology_from_name,
)
from repro.problems.base import FunctionalProblem, Problem
from repro.problems.batch import EvaluationResult

__all__ = [
    "Archipelago",
    "Island",
    "MigrationPolicy",
    "ParetoArchive",
    "kernels",
    "archive_prune",
    "constrained_domination_blocks",
    "constrained_domination_matrix",
    "crowding_distances",
    "crowding_truncation_order",
    "domination_matrix",
    "non_dominated_mask",
    "nondominated_sort",
    "tournament_winner",
    "Individual",
    "Population",
    "coverage_report",
    "global_pareto_coverage",
    "hypervolume",
    "inverted_generational_distance",
    "relative_pareto_coverage",
    "union_front",
    "FrontSelection",
    "closest_to_ideal",
    "equally_spaced_selection",
    "ideal_point",
    "knee_point",
    "mine_front",
    "pareto_relative_minimum",
    "shadow_minima",
    "MOEAD",
    "MOEADConfig",
    "NSGA2",
    "NSGA2Config",
    "assign_ranks_and_crowding",
    "PMO2Config",
    "build_pmo2",
    "EvaluationResult",
    "FunctionalProblem",
    "Problem",
    "PerturbationModel",
    "RobustnessReport",
    "RobustnessSettings",
    "front_yields",
    "local_yields",
    "robustness_condition",
    "uptake_yield",
    "AllToAllTopology",
    "IsolatedTopology",
    "RandomTopology",
    "RingTopology",
    "StarTopology",
    "Topology",
    "topology_from_name",
]
