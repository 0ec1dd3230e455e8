"""Multi-objective optimization toolkit (the paper's primary contribution).

The sub-package provides:

* :mod:`repro.moo.individual` / :mod:`repro.moo.archive` — populations
  that own their ``X`` / ``F`` / ``CV`` / ``rank`` / ``crowding`` arrays,
  individuals as views of one row, and the Pareto archive, which holds its
  members in a population and shares its matrices;
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
:mod:`repro.problems`; :class:`Problem` and :class:`FunctionalProblem` are
re-exported here.

The public names below resolve on first access, so importing one engine
(``from repro.moo.nsga2 import NSGA2``) loads only what that engine needs,
not the robustness, mining and metrics modules.
"""

import importlib

from repro.moo import kernels

#: Public name -> module defining it, resolved by :func:`__getattr__`.
_EXPORTS = {
    "Archipelago": "repro.moo.archipelago",
    "Island": "repro.moo.archipelago",
    "MigrationPolicy": "repro.moo.archipelago",
    "ParetoArchive": "repro.moo.archive",
    "archive_prune": "repro.moo.kernels",
    "constrained_domination_blocks": "repro.moo.kernels",
    "constrained_domination_matrix": "repro.moo.kernels",
    "crowding_distances": "repro.moo.kernels",
    "crowding_truncation_order": "repro.moo.kernels",
    "domination_matrix": "repro.moo.kernels",
    "non_dominated_mask": "repro.moo.kernels",
    "nondominated_sort": "repro.moo.kernels",
    "tournament_winner": "repro.moo.kernels",
    "Individual": "repro.moo.individual",
    "Population": "repro.moo.individual",
    "coverage_report": "repro.moo.metrics",
    "global_pareto_coverage": "repro.moo.metrics",
    "hypervolume": "repro.moo.metrics",
    "inverted_generational_distance": "repro.moo.metrics",
    "relative_pareto_coverage": "repro.moo.metrics",
    "union_front": "repro.moo.metrics",
    "FrontSelection": "repro.moo.mining",
    "closest_to_ideal": "repro.moo.mining",
    "equally_spaced_selection": "repro.moo.mining",
    "ideal_point": "repro.moo.mining",
    "knee_point": "repro.moo.mining",
    "mine_front": "repro.moo.mining",
    "pareto_relative_minimum": "repro.moo.mining",
    "shadow_minima": "repro.moo.mining",
    "MOEAD": "repro.moo.moead",
    "MOEADConfig": "repro.moo.moead",
    "NSGA2": "repro.moo.nsga2",
    "NSGA2Config": "repro.moo.nsga2",
    "assign_ranks_and_crowding": "repro.moo.nsga2",
    "PMO2Config": "repro.moo.pmo2",
    "build_pmo2": "repro.moo.pmo2",
    "FunctionalProblem": "repro.problems.base",
    "Problem": "repro.problems.base",
    "PerturbationModel": "repro.moo.robustness",
    "RobustnessReport": "repro.moo.robustness",
    "RobustnessSettings": "repro.moo.robustness",
    "front_yields": "repro.moo.robustness",
    "local_yields": "repro.moo.robustness",
    "robustness_condition": "repro.moo.robustness",
    "uptake_yield": "repro.moo.robustness",
    "AllToAllTopology": "repro.moo.topology",
    "IsolatedTopology": "repro.moo.topology",
    "RandomTopology": "repro.moo.topology",
    "RingTopology": "repro.moo.topology",
    "StarTopology": "repro.moo.topology",
    "Topology": "repro.moo.topology",
    "topology_from_name": "repro.moo.topology",
}


def __getattr__(name: str):
    """Import the module that defines ``name`` and return the attribute."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__all__ = ["kernels", *_EXPORTS]
