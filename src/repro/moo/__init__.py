"""Multi-objective optimization toolkit (the paper's primary contribution).

The sub-package provides:

* :mod:`repro.moo.nsga2` / :mod:`repro.moo.moead` — the two evolutionary
  engines (NSGA-II is PMO2's island engine, MOEA/D the Table 1 baseline);
* :mod:`repro.moo.archipelago` / :mod:`repro.moo.topology` /
  :mod:`repro.moo.pmo2` — the island model and the PMO2 configuration;
* :mod:`repro.moo.metrics` — hypervolume and the paper's Gp / Rp coverage
  indicators;
* :mod:`repro.moo.mining` — closest-to-ideal, Pareto Relative Minimum, shadow
  minima and equally spaced front sampling;
* :mod:`repro.moo.robustness` — the robustness condition rho, the yield Gamma
  and the Monte-Carlo perturbation ensembles (with ``n_workers`` knobs that
  fan the trials out over processes);
* :mod:`repro.moo.kernels` — the vectorized, constraint-aware dominance /
  sorting / crowding / archive-prune kernels on ``(n, m)`` objective
  matrices that every routine above runs on (with the naive reference
  implementations preserved in :mod:`repro.moo._reference` for the
  equivalence tests and benchmarks);
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
from repro.moo.archipelago import Archipelago, ArchipelagoConfig, Island, MigrationPolicy
from repro.moo.archive import ParetoArchive
from repro.moo.dominance import (
    assign_ranks_and_crowding,
    constrained_dominates,
    crowding_distance,
    dominates,
    fast_non_dominated_sort,
    filter_non_dominated,
    non_dominated_front_indices,
)
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
    tournament_winners,
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
from repro.moo.nsga2 import NSGA2, NSGA2Config
from repro.moo.pmo2 import PMO2, PMO2Config
from repro.moo.robustness import (
    PerturbationModel,
    RobustnessReport,
    RobustnessSettings,
    front_yields,
    global_ensemble,
    local_ensemble,
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
    "ArchipelagoConfig",
    "Island",
    "MigrationPolicy",
    "ParetoArchive",
    "assign_ranks_and_crowding",
    "constrained_dominates",
    "crowding_distance",
    "dominates",
    "fast_non_dominated_sort",
    "filter_non_dominated",
    "non_dominated_front_indices",
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
    "tournament_winners",
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
    "PMO2",
    "PMO2Config",
    "EvaluationResult",
    "FunctionalProblem",
    "Problem",
    "PerturbationModel",
    "RobustnessReport",
    "RobustnessSettings",
    "front_yields",
    "global_ensemble",
    "local_ensemble",
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
