"""End-to-end design pipeline, canned paper experiments, registry, artifacts.

* :class:`~repro.core.designer.RobustPathwayDesigner` — optimize → mine →
  robustness, the paper's methodology as one object;
* :mod:`repro.core.experiments` — one function per table/figure of the
  evaluation section, shared by the benchmark harness, the integration tests
  and the CLI;
* :mod:`repro.core.registry` — the experiment registry: every canned
  experiment as a named entry with a parameter schema and artifact spec;
* :mod:`repro.core.artifacts` — durable run artifacts (manifest, front
  JSON/CSV, ledger) with loaders that re-hydrate recorded fronts into
  :class:`~repro.moo.individual.Individual` objects;
* :mod:`repro.core.report` — deterministic plain-text rendering shared by
  the CLI, the docs examples and the benchmark output.

The public names below resolve on first access, so importing one submodule
(``from repro.core.artifacts import record_run``) loads only that submodule's
dependencies, not the Geobacter FBA model and its scipy solvers.
"""

import importlib

#: Public name -> submodule defining it, resolved by :func:`__getattr__`.
_EXPORTS = {
    "DesignReport": "designer",
    "RobustPathwayDesigner": "designer",
    "SelectedDesign": "designer",
    "REGISTRY": "registry",
    "Experiment": "registry",
    "ExperimentRegistry": "registry",
    "Parameter": "registry",
    "experiment_names": "registry",
    "get_experiment": "registry",
    "RunManifest": "artifacts",
    "individuals_from_front": "artifacts",
    "list_runs": "artifacts",
    "load_front": "artifacts",
    "load_manifest": "artifacts",
    "load_result": "artifacts",
    "record_run": "artifacts",
    "Figure1Result": "experiments",
    "Figure2Result": "experiments",
    "Figure3Result": "experiments",
    "Figure4Result": "experiments",
    "MigrationAblationResult": "experiments",
    "Table1Result": "experiments",
    "Table2Result": "experiments",
    "run_figure1": "experiments",
    "run_figure2": "experiments",
    "run_figure3": "experiments",
    "run_figure4": "experiments",
    "run_migration_ablation": "experiments",
    "run_table1": "experiments",
    "run_table2": "experiments",
    "format_table": "report",
    "paper_vs_measured": "report",
    "render_design_report": "report",
    "render_selections": "report",
}


def __getattr__(name: str):
    """Import the submodule that defines ``name`` and return the attribute."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("%s.%s" % (__name__, module)), name)
    globals()[name] = value
    return value


__all__ = list(_EXPORTS)
