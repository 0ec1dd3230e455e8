"""Docstring audit of the ``repro.core``, ``repro.runtime``, ``repro.solve``,
``repro.serve``, ``repro.problems``, ``repro.obs`` and ``repro.fba`` public
API (plus the vectorized science modules and the ``tests.oracles.ode``
kinetic oracle).

The contract (also linted by the CI docs job via ``ruff check`` with the
``D1xx`` rules configured in ``pyproject.toml``): every public module, class,
function and method of the audited packages carries a docstring, and the key
entry points carry an *example-bearing* docstring (a doctest ``>>>`` block or
a reST ``::`` code block).  This test enforces the same contract without
needing ruff installed, so it runs inside the tier-1 suite.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro.core
import repro.fba
import repro.geobacter.problem
import repro.moo.archive
import repro.moo.individual
import repro.moo.kernels
import repro.moo.nsga2
import repro.obs
import repro.params
import repro.photosynthesis.nitrogen
import repro.photosynthesis.problem
import repro.photosynthesis.steady_state
import repro.problems
import repro.runtime
import repro.serve
import repro.solve
import tests.oracles.ode

PACKAGES = [
    repro.core,
    repro.fba,
    repro.obs,
    repro.problems,
    repro.runtime,
    repro.serve,
    repro.solve,
    tests.oracles.ode,
]

#: Individual modules audited in addition to the full packages (the
#: vectorized kernels, the shared Parameter primitive and the science modules
#: that grew batch paths are public API even though their parent packages are
#: documented more loosely).
EXTRA_MODULES = [
    repro.geobacter.problem,
    repro.moo.archive,
    repro.moo.individual,
    repro.moo.kernels,
    repro.moo.nsga2,
    repro.params,
    repro.photosynthesis.nitrogen,
    repro.photosynthesis.problem,
    repro.photosynthesis.steady_state,
]

#: Dotted names whose docstrings must show a usage example.
REQUIRED_EXAMPLES = [
    "repro.core.artifacts",
    "repro.core.artifacts.dumps_json",
    "repro.core.artifacts.front_payload",
    "repro.core.artifacts.individuals_from_front",
    "repro.core.artifacts.load_front",
    "repro.core.artifacts.load_manifest",
    "repro.core.designer.RobustPathwayDesigner",
    "repro.core.registry",
    "repro.core.registry.Experiment",
    "repro.core.registry.Experiment.run",
    "repro.core.registry.get_experiment",
    "repro.core.report.render_selections",
    "repro.fba.solver.assemble_lp",
    "repro.fba.batch.steady_state_violations",
    "repro.moo.kernels",
    "repro.obs",
    "repro.obs.telemetry.RunTelemetry",
    "repro.obs.telemetry.load_telemetry",
    "repro.obs.trace.Tracer",
    "repro.problems",
    "repro.problems.base",
    "repro.problems.base.Problem.evaluate_matrix",
    "repro.problems.batch.BatchEvaluation",
    "repro.problems.registry",
    "repro.problems.registry.build_problem",
    "repro.problems.registry.parse_problem_spec",
    "repro.problems.base.Problem.design_space",
    "repro.problems.transforms",
    "repro.runtime.checkpoint",
    "repro.runtime.cachekeys",
    "repro.runtime.diskcache.PersistentCachedEvaluator",
    "repro.runtime.evaluator.build_evaluator",
    "repro.runtime.ledger.EvaluationLedger.summary",
    "repro.serve",
    "repro.serve.app.ServeThread",
    "repro.serve.client.ServeClient",
    "repro.serve.coordinator.Coordinator",
    "repro.serve.runner.run_job",
    "repro.serve.store.JobStore",
    "repro.solve",
    "repro.solve.api.solve",
    "repro.solve.events",
    "repro.solve.registry",
    "repro.solve.registry.SolverSpec.build",
    "repro.solve.registry.get_solver",
    "repro.solve.request.SolveRequest",
    "repro.solve.result.SolveResult",
    "repro.solve.termination",
    "repro.solve.warmstart.load_warm_population",
    "tests.oracles.ode.network.KineticNetwork.build_rhs_batch",
    "tests.oracles.ode.simulator.KineticSimulator.simulate_ensemble",
]


def _iter_modules():
    for package in PACKAGES:
        yield package
        for info in pkgutil.iter_modules(package.__path__):
            yield importlib.import_module("%s.%s" % (package.__name__, info.name))
    yield from EXTRA_MODULES


def _public_members(module):
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(member) or inspect.isfunction(member)):
            continue
        if getattr(member, "__module__", None) != module.__name__:
            continue  # re-exports are documented at their definition site
        yield name, member


def _public_methods(klass):
    for name, member in vars(klass).items():
        if name.startswith("_"):
            continue
        if isinstance(member, (staticmethod, classmethod)):
            member = member.__func__
        elif isinstance(member, property):
            yield name, member
            continue
        if not inspect.isfunction(member):
            continue
        yield name, member


def _docstring(obj) -> str:
    if isinstance(obj, property):
        return obj.fget.__doc__ or ""
    return inspect.getdoc(obj) or ""


def test_every_module_has_a_docstring():
    for module in _iter_modules():
        assert module.__doc__ and module.__doc__.strip(), (
            "%s is missing a module docstring" % module.__name__
        )


def test_every_public_class_and_function_has_a_docstring():
    missing = []
    for module in _iter_modules():
        for name, member in _public_members(module):
            if not _docstring(member).strip():
                missing.append("%s.%s" % (module.__name__, name))
            if inspect.isclass(member):
                for method_name, method in _public_methods(member):
                    if not _docstring(method).strip():
                        missing.append(
                            "%s.%s.%s" % (module.__name__, name, method_name)
                        )
    assert not missing, "undocumented public API: %s" % ", ".join(sorted(missing))


@pytest.mark.parametrize("dotted", REQUIRED_EXAMPLES)
def test_key_entry_points_carry_examples(dotted):
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attribute in parts[split:]:
            obj = getattr(obj, attribute)
        break
    text = _docstring(obj)
    assert ">>>" in text or "::" in text, (
        "%s must carry an example-bearing docstring (>>> or ::)" % dotted
    )
