"""repro: reproduction of "Design of Robust Metabolic Pathways" (DAC 2011).

The library is organised in these sub-packages:

* :mod:`repro.problems` — the problem layer: typed declarative design
  spaces, the batch-first ``evaluate_matrix`` Problem contract, composable
  transforms and the name-addressable problem registry (see
  docs/problems.md);
* :mod:`repro.moo` — the PMO2 island-model multi-objective optimizer, the
  NSGA-II and MOEA/D engines, Pareto-front mining, quality metrics and the
  robustness framework (the paper's methodological contribution);
* :mod:`repro.solve` — the unified solver API: one ``solve()`` entry point
  over every engine (solver registry, composable termination criteria,
  streaming run events, the single ``SolveResult`` type; see
  docs/solving.md);
* :mod:`repro.runtime` — the execution runtime: serial / process-pool /
  memoizing evaluators behind ``solve()``'s ``evaluator`` / ``n_workers`` /
  ``cache`` knobs, the evaluation-budget ledger, and
  checkpoint/resume for long runs.  Parallelism, caching and resuming never
  change results: a pooled or restored run is bitwise identical to a serial
  uninterrupted run of the same seed;
* :mod:`repro.photosynthesis` — the C3 carbon-metabolism model with its 23
  tunable enzymes, nitrogen accounting, environmental conditions and the
  CO2-uptake / nitrogen multi-objective design problem;
* :mod:`repro.fba` — a constraint-based modelling substrate (stoichiometric
  models, flux balance analysis, flux variability) replacing the COBRA
  toolbox;
* :mod:`repro.geobacter` — a synthetic Geobacter sulfurreducens genome-scale
  model and the electron-versus-biomass flux-design problem;
* :mod:`repro.core` — the end-to-end robust-pathway-design pipeline, the
  canned experiments that regenerate every table and figure of the paper,
  the experiment registry and the run-artifact layer;
* :mod:`repro.cli` — the ``python -m repro`` command-line interface: list,
  describe, run, resume and export registered experiments (see docs/cli.md).
"""

__version__ = "21.1.0"

__all__ = ["__version__"]
