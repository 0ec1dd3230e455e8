"""Reachability sweep: which ``src/`` functions the product's entry points run.

The product is what its entry points reach.  This script drives every entry
point CI exercises -- the seven ``repro run`` experiments (serial, pooled and
resumed, with their renders and ``repro export``), ``repro solve`` on every
registered problem and engine with the termination, resume, disk-cache,
telemetry and warm-start flags, ``repro trace``/``stats``/``cache``, an
in-process ``repro serve`` with client calls, and the ``examples/`` scripts
-- in this process under :func:`sys.setprofile` and
:func:`threading.setprofile`, and records the code object of every Python
function that starts.  It then compares that set against an AST inventory
of every function and method defined under ``src/``.

Two lists must stay empty, or the script exits 1:

* *unreached*: a function no entry point ran and :data:`ALLOWLIST` does not
  name.  Delete it, move it to ``tests/oracles/`` if tests compare against
  it, or allowlist it with the entry point, flag, benchmark or oracle that
  needs it;
* *stale*: an allowlisted function the sweep now reaches.  Drop its entry.

The last line printed is one JSON record, ``{"src_lines", "functions",
"reached", "allowlisted", "unreached"}``, so the ``src/`` line count is on
every run.  The sweep runs the experiments at toy budgets and takes seconds.

Run with::

    PYTHONWARNINGS=error::DeprecationWarning python tests/reachability.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import runpy
import socket
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_REPR = "__repr__/__str__ for debugging sessions; nothing parses it"
_ABSTRACT = "abstract method of the contract; every concrete class overrides it"
_NO_OP = "no-op default that the observers and sinks in use override"
_POOL = "--n-workers: runs inside the ProcessPoolEvaluator worker processes"
_SERVE = "repro serve: blocks until interrupted; the sweep runs the same ServeApp in a ServeThread"
_FORKED = "repro serve: runs in the fork server (python -m repro.serve.runner) or a worker it forks"
_BENCH = "benchmarks/bench_fig*, bench_table*, bench_ablation* (the CI paper-claims job)"

#: Functions no entry point of the sweep runs, each with what needs it.
ALLOWLIST: dict[str, str] = {
    "repro.cli.main._cmd_serve": _SERVE,
    "repro.cli.main._cmd_serve.<locals>.announce": _SERVE,
    "repro.core.experiments.Figure1Result.max_uptake": "benchmarks/bench_fig1_pareto_conditions.py",
    "repro.core.registry.Experiment.run": _BENCH + " run every experiment through it",
    "repro.core.registry.ExperimentRegistry.__repr__": _REPR,
    "repro.core.report.paper_vs_measured": _BENCH + " print their paper-vs-measured block",
    "repro.fba.batch.ResidualPlan.__getstate__": (
        "pickle hook: the process that unpickles a probed plan (a --n-workers worker, a "
        "restored checkpoint) probes it again"
    ),
    "repro.fba.batch.bound_violations": "benchmarks/bench_fba.py: its speedup floor (CI perf-smoke)",
    "repro.fba.metabolite.Metabolite.__str__": _REPR,
    "repro.fba.model.StoichiometricModel.__repr__": _REPR,
    "repro.fba.reaction.Reaction.__str__": _REPR,
    "repro.fba.reaction.Reaction.is_exchange": (
        "tests/oracles/fba.py: the reference deletion scans skip exchange reactions"
    ),
    "repro.moo.archipelago.Archipelago.__repr__": _REPR,
    "repro.moo.archive.ParetoArchive.__repr__": _REPR,
    "repro.moo.archive.ParetoArchive.add": (
        "tests/moo/test_archive_equivalence.py: the one-at-a-time fold add_population is held to"
    ),
    "repro.moo.individual.Individual.__repr__": _REPR,
    "repro.moo.individual.Individual.is_evaluated": "documented: repro.core.artifacts example",
    "repro.moo.individual.Individual.is_feasible": "documented in docs/solving.md",
    "repro.moo.individual.Population.__repr__": _REPR,
    "repro.moo.individual.Population.append": "documented in docs/solving.md",
    "repro.moo.individual.Population.from_vectors": "documented in docs/solving.md",
    "repro.moo.kernels.constrained_domination_matrix": (
        "perfbench/workloads.py: the mutual non-dominance check of every unit's front"
    ),
    "repro.moo.metrics.generational_distance": "RunTelemetry(reference_front=) records IGD",
    "repro.moo.metrics.inverted_generational_distance": (
        "RunTelemetry(reference_front=) records IGD per generation"
    ),
    "repro.moo.validation._names": "error path: names the variables of a non-finite box",
    "repro.obs.telemetry.RunTelemetry.__repr__": _REPR,
    "repro.obs.trace.InMemorySink.__init__": "documented in docs/observability.md",
    "repro.obs.trace.InMemorySink.clear": "documented in docs/observability.md",
    "repro.obs.trace.InMemorySink.emit": "documented in docs/observability.md",
    "repro.obs.trace.JsonlSink.__repr__": _REPR,
    "repro.obs.trace.NullSink.emit": _NO_OP,
    "repro.obs.trace.Span.__repr__": _REPR,
    "repro.obs.trace.TraceSink.__enter__": "context-manager protocol of the sinks",
    "repro.obs.trace.TraceSink.__exit__": "context-manager protocol of the sinks",
    "repro.obs.trace.TraceSink.close": _NO_OP,
    "repro.obs.trace.TraceSink.emit": _NO_OP,
    "repro.obs.trace.Tracer.__repr__": _REPR,
    "repro.obs.trace.use_tracer": "benchmarks/bench_obs_overhead.py; docs/observability.md",
    "repro.problems.base.FunctionalProblem.__init__": "documented in docs/problems.md",
    "repro.problems.base.FunctionalProblem._evaluate_matrix": "documented in docs/problems.md",
    "repro.problems.base.FunctionalProblem.cache_identity": "documented in docs/problems.md",
    "repro.problems.base.Problem.__repr__": _REPR,
    "repro.problems.base.Problem._evaluate_matrix": _ABSTRACT,
    "repro.problems.base.Problem.objective_matrix": (
        "contract default of docs/problems.md; photosynthesis, the only problem an "
        "entry point assesses, overrides it"
    ),
    "repro.problems.batch.BatchEvaluation.__repr__": _REPR,
    "repro.problems.batch.BatchEvaluation.empty": "input path: an empty decision matrix",
    "repro.problems.batch.BatchEvaluation.feasible": "documented in docs/problems.md",
    "repro.runtime.cachekeys._plain": "input path: numpy values in a problem's cache identity",
    "repro.runtime.cachekeys.quantize_row": "documented in docs/solving.md",
    "repro.runtime.checkpoint.CheckpointManager.__repr__": _REPR,
    "repro.runtime.checkpoint.CheckpointManager.latest": (
        "library API: CheckpointManager.load() without a path reads the newest file"
    ),
    "repro.runtime.diskcache.DiskCache.__repr__": _REPR,
    "repro.runtime.diskcache.DiskCache._reset": "error path: a corrupted store is moved aside",
    "repro.runtime.diskcache.PersistentCachedEvaluator.__repr__": _REPR,
    "repro.runtime.diskcache.PersistentCachedEvaluator.stats": "documented in docs/performance.md",
    "repro.runtime.evaluator.CachedEvaluator.__repr__": _REPR,
    "repro.runtime.evaluator.CachedEvaluator.stats": "documented in docs/observability.md",
    "repro.runtime.evaluator.Evaluator.__enter__": "documented: the build_evaluator example",
    "repro.runtime.evaluator.Evaluator.__exit__": "documented: the build_evaluator example",
    "repro.runtime.evaluator.Evaluator.evaluate_matrix": _ABSTRACT,
    "repro.runtime.evaluator.ProcessPoolEvaluator.__repr__": _REPR,
    "repro.runtime.evaluator._pool_apply": _POOL,
    "repro.runtime.evaluator._pool_initializer": _POOL,
    "repro.runtime.evaluator._pool_warmup": _POOL,
    "repro.runtime.ledger.EvaluationLedger.__repr__": _REPR,
    "repro.serve.app.run_app": _SERVE,
    "repro.serve.app.run_app.<locals>._main": _SERVE,
    "repro.serve.coordinator._ForkServer._kill_group": (
        "error path: a fork server that dies or outstays its grace period"
    ),
    "repro.serve.runner.EventLogObserver.__init__": _FORKED,
    "repro.serve.runner.EventLogObserver._emit": _FORKED,
    "repro.serve.runner.EventLogObserver.close": _FORKED,
    "repro.serve.runner.EventLogObserver.on_checkpoint": _FORKED,
    "repro.serve.runner.EventLogObserver.on_generation": _FORKED,
    "repro.serve.runner.EventLogObserver.on_migration": _FORKED,
    "repro.serve.runner._Worker.__init__": _FORKED,
    "repro.serve.runner._Worker.close": _FORKED,
    "repro.serve.runner._Worker.report": _FORKED,
    "repro.serve.runner._preload": _FORKED,
    "repro.serve.runner._work": _FORKED,
    "repro.serve.runner.main": _FORKED,
    "repro.serve.runner.run_job": _FORKED,
    "repro.serve.runner.serve_forks": _FORKED,
    "repro.serve.runner.serve_forks.<locals>.finish": _FORKED,
    "repro.serve.runner.serve_forks.<locals>.fork": _FORKED,
    "repro.serve.runner.serve_forks.<locals>.reap": _FORKED,
    "repro.serve.runner.serve_forks.<locals>.reply": _FORKED,
    "repro.solve.api.Solver.initialize": _ABSTRACT,
    "repro.solve.api.Solver.is_initialized": _ABSTRACT,
    "repro.solve.api.Solver.pareto_front": _ABSTRACT,
    "repro.solve.api.Solver.result": _ABSTRACT,
    "repro.solve.api.Solver.step": _ABSTRACT,
    "repro.solve.events.CallbackObserver.on_checkpoint": (
        "documented in docs/solving.md: dispatches a caller's on_checkpoint callback"
    ),
    "repro.solve.events.CallbackObserver.on_migration": (
        "documented in docs/solving.md: dispatches a caller's on_migration callback"
    ),
    "repro.solve.events.Observer.on_checkpoint": _NO_OP,
    "repro.solve.events.Observer.on_generation": _NO_OP,
    "repro.solve.events.Observer.on_migration": _NO_OP,
    "repro.solve.events.RunProgress.__repr__": _REPR,
    "repro.solve.result.SolveResult.__repr__": _REPR,
    "repro.solve.termination.HypervolumeStagnation.__repr__": _REPR,
    "repro.solve.termination.MaxEvaluations.__repr__": _REPR,
    "repro.solve.termination.MaxGenerations.__repr__": _REPR,
    "repro.solve.termination.Termination.should_stop": _ABSTRACT,
    "repro.solve.termination.WallClock.__repr__": _REPR,
    "repro.solve.termination._Combined.__repr__": _REPR,
}


# ---------------------------------------------------------------------------
# Inventory (AST only; the tier-1 allowlist guard uses this part alone)
# ---------------------------------------------------------------------------
def _statements(node: ast.AST):
    """The statements directly inside a compound statement's blocks."""
    for field in ("body", "orelse", "finalbody", "handlers"):
        for child in getattr(node, field, []):
            yield from child.body if isinstance(child, ast.ExceptHandler) else [child]


def _functions(statements, prefix: str):
    """Yield ``(qualified name, first line)`` for every def."""
    for node in statements:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node.body, "%s.%s" % (prefix, node.name))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = "%s.%s" % (prefix, node.name)
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield name, first
            yield from _functions(node.body, name + ".<locals>")
        else:
            yield from _functions(_statements(node), prefix)


def inventory(src: Path = SRC) -> dict[str, tuple[Path, int]]:
    """Map every function under ``src`` to ``(path, first line)``.

    The qualified name is the dotted module path plus the ``__qualname__``
    (``repro.moo.archive.ParetoArchive.add``); the first line is the first
    decorator's, which is the line the compiled code object reports.
    """
    found: dict[str, tuple[Path, int]] = {}
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, first in _functions(tree.body, module):
            found[name] = (path, first)
    return found


def src_lines() -> int:
    """Lines of Python under ``src/`` (the count ROADMAP tracks)."""
    return sum(len(path.read_bytes().splitlines()) for path in SRC.rglob("*.py"))


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
def _cli(*argv: str, code: int = 0) -> None:
    """Run ``repro <argv>`` in-process; fail unless it exits with ``code``."""
    from repro.cli.main import main

    try:
        status = main(list(argv))
    except SystemExit as exit_:
        status = exit_.code
    if status != code:
        raise RuntimeError("repro %s exited %r, expected %d" % (" ".join(argv), status, code))


def _drive(work: Path) -> None:
    """Run every entry point once, at toy budget, inside ``work``."""
    runs = str(work / "runs")
    toy = ["--population", "8", "--generations", "4", "--seed", "0"]
    _cli("list")
    _cli("list", "--json")
    _cli("describe", "photosynthesis-table1")
    _cli("describe-problem", "zdt1?noise=0.01")
    _cli("describe-problem", "photosynthesis", "--json")
    _cli("solve", "--list-problems")
    extras = {
        "photosynthesis-figure3": ["--robustness-trials", "20"],
        "photosynthesis-table2": ["--robustness-trials", "20", "--surface-points", "3"],
    }
    from repro.core.registry import experiment_names

    for name in experiment_names():
        _cli("run", name, *toy, *extras.get(name, []), "--output-dir", runs)
        (run_dir,) = (work / "runs" / name).glob("*-seed0")
        _cli("export", str(run_dir), "--check")
        _cli("export", str(run_dir), "--what", "result")
        _cli("export", str(run_dir), "--format", "csv", "--output", str(work / "front.csv"))
        _cli("export", str(run_dir), "--what", "manifest", "--output", str(work / "m.json"))
    table2 = ["photosynthesis-table2", *toy, *extras["photosynthesis-table2"]]
    _cli("run", *table2, "--n-workers", "2", "--quiet", "--output-dir", str(work / "pool"))
    _cli("run", *table2, "--cache", "--quiet", "--output-dir", str(work / "cached"))
    ckpt = ["--checkpoint-dir", str(work / "t2-ckpt"), "--checkpoint-interval", "2"]
    _cli("run", *table2, *ckpt, "--quiet", "--timing", "--output-dir", str(work / "t2"))
    _cli("resume", *table2, *ckpt, "--output-dir", str(work / "t2"))

    from repro.problems import problem_names
    from repro.solve.registry import solver_names

    for problem in problem_names():
        for algorithm in solver_names():
            _cli("solve", problem, "--algorithm", algorithm, "--generations", "2",
                 "--population", "8", "--seed", "0", "--quiet")
    for spec in ("zdt1?n_var=10", "zdt1?noise=0.01", "zdt1?normalized=1",
                 "bnh?penalty=100", "dtlz2?objectives=0,1", "zdt1?delay=0.0001"):
        _cli("solve", spec, "--algorithm", "nsga2", "--generations", "3",
             "--population", "8", "--seed", "0", "--cache-dir", str(work / "spec-cache"))
    from repro.exceptions import EvaluationError

    with contextlib.suppress(EvaluationError):
        _cli("solve", "zdt1?fail_after=10", "--algorithm", "nsga2", "--generations", "3",
             "--population", "8")
    for misspelled in (["solve", "zdt7"], ["solve", "zdt1", "--algorithm", "nsga3"],
                       ["describe", "photosynthesis-tabel1"], ["solve", "zdt1?n_vars=3"]):
        _cli(*misspelled, code=2)
    for algorithm in solver_names():
        _cli("solve", "dtlz2", "--algorithm", algorithm, "--generations", "4",
             "--population", "8", "--hv-patience", "2")
    _cli("solve", "geobacter", "--algorithm", "nsga2", "--generations", "2", "--population",
         "8", "--seed", "0", "--n-workers", "2", "--checkpoint-dir", str(work / "geo-ckpt"),
         "--checkpoint-interval", "1")
    # PMO2 first migrates at generation 200, the paper's interval.
    _cli("solve", "zdt1?n_var=2", "--algorithm", "pmo2", "--generations", "201",
         "--population", "4", "--live", "--checkpoint-dir", str(work / "live-ckpt"),
         "--checkpoint-interval", "100")
    _cli("solve", "zdt1", "--algorithm", "nsga2", "--population", "8", "--seed", "0",
         "--generations", "50", "--max-evaluations", "200", "--hv-patience", "3",
         "--wall-clock", "60", "--stream")
    _cli("solve", "zdt1", "--seed", "-1", code=2)
    for algorithm in solver_names():
        common = ["zdt1", "--algorithm", algorithm, "--population", "8", "--seed", "0"]
        resume = ["--checkpoint-dir", str(work / ("ckpt-" + algorithm)),
                  "--checkpoint-interval", "2", "--cache-dir", str(work / "cache")]
        _cli("solve", *common, *resume, "--generations", "4", "--cache")
        _cli("solve", *common, *resume, "--generations", "6",
             "--front-json", str(work / ("front-" + algorithm + ".json")))
    telemetry = str(work / "telemetry")
    _cli("solve", "zdt1", "--algorithm", "nsga2", "--generations", "4", "--population",
         "8", "--seed", "0", "--live", "--timing", "--telemetry-dir", telemetry)
    _cli("trace", telemetry)
    _cli("trace", telemetry, "--json")
    _cli("stats", telemetry)
    _cli("stats", telemetry, "--json")
    warm = ["--algorithm", "nsga2", "--generations", "3", "--population", "8"]
    _cli("solve", "fonseca", *warm, "--seed", "0", "--telemetry-dir", str(work / "warm"))
    _cli("solve", "fonseca", *warm, "--seed", "1", "--warm-start", str(work / "warm"))
    _cli("solve", "kursawe", *warm, "--seed", "1", "--warm-start", str(work / "warm"), code=2)
    for action in (["stats"], ["stats", "--json"], ["gc", "--max-entries", "5"],
                   ["gc", "--older-than", "1"], ["clear"]):
        _cli("cache", action[0], str(work / "cache"), *action[1:])

    _serve(work)
    for example in sorted((ROOT / "examples").glob("*.py")):
        try:
            runpy.run_path(str(example), run_name="__main__")
        except SystemExit as exit_:
            if exit_.code:
                raise


def _serve(work: Path) -> None:
    """``repro serve`` in-process: submit, stream, fetch, cancel, inspect."""
    from repro.serve import ServeClient, ServeThread, ServiceError

    spec = {"problem": "zdt1", "algorithm": "nsga2", "seed": 0, "generations": 4,
            "population": 8}
    with ServeThread(str(work / "serve"), workers=1, cache_dir=str(work / "serve-cache")) as app:
        client = ServeClient(port=app.port)
        client.healthz()
        job = client.submit(**spec)
        for _event in client.stream(job["id"]):
            pass
        client.result(job["id"])
        client.wait(client.submit(**spec)["id"])
        doomed = client.submit(**dict(spec, generations=10_000))
        client.cancel(doomed["id"])
        client.wait(doomed["id"])
        client.job(job["id"])
        client.jobs()
        client.stats()
        for bad in ({"problem": "zdt7"}, {"problem": "zdt1", "generations": -1}):
            with contextlib.suppress(ServiceError):
                client.submit(**bad)
        with contextlib.suppress(ServiceError):
            client.result("no-such-job")
        with socket.create_connection(("127.0.0.1", app.port), timeout=30) as raw:
            raw.sendall(b"POST /jobs HTTP/1.1\r\nContent-Length: -1\r\n\r\n")
            raw.recv(1024)
    # A restart recovers the finished jobs from the data directory.
    with ServeThread(str(work / "serve"), workers=1) as app:
        ServeClient(port=app.port).jobs()


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------
def sweep(drive=_drive) -> set[tuple[str, int]]:
    """Run ``drive(work)``; return the ``(file, first line)`` of each code run.

    ``work`` is a fresh temporary directory, also the working directory while
    ``drive`` runs; calls in threads ``drive`` starts are recorded too.
    """
    seen: set = set()

    def profile(frame, event, _arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    with tempfile.TemporaryDirectory() as work:
        sink = io.StringIO()
        cwd = os.getcwd()
        os.chdir(work)
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                drive(Path(work))
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            os.chdir(cwd)
    return {(code.co_filename, code.co_firstlineno) for code in seen}


def reached_functions(
    functions: dict[str, tuple[Path, int]], reached_lines: set[tuple[str, int]]
) -> set[str]:
    """The inventory names whose ``(path, first line)`` the sweep recorded."""
    return {
        name for name, (path, first) in functions.items()
        if (str(path), first) in reached_lines
    }


def compare(
    functions: dict[str, tuple[Path, int]], reached: set[str], allowlist: dict[str, str]
) -> dict[str, list[str]]:
    """Sort the inventory against the reached names and an allowlist.

    Returns the sorted names under three keys, each of which must be empty:
    ``"unreached"`` (run by no entry point and not allowlisted),
    ``"stale allowlist entry"`` (allowlisted, yet the sweep ran it) and
    ``"allowlisted but not defined"`` (the entry names no function).
    """
    return {
        "unreached": sorted(set(functions) - reached - set(allowlist)),
        "stale allowlist entry": sorted(set(allowlist) & reached),
        "allowlisted but not defined": sorted(set(allowlist) - set(functions)),
    }


def main() -> int:
    """Sweep, compare against the inventory and the allowlist, report."""
    functions = inventory()
    reached = reached_functions(functions, sweep())
    findings = compare(functions, reached, ALLOWLIST)
    for label, names in findings.items():
        for name in names:
            where = functions.get(name)
            location = "%s:%d" % (where[0].relative_to(ROOT), where[1]) if where else "-"
            print("%s: %s (%s)" % (label, name, location))
    print(json.dumps({
        "src_lines": src_lines(),
        "functions": len(functions),
        "reached": len(reached),
        "allowlisted": len(ALLOWLIST),
        "unreached": len(findings["unreached"]),
    }))
    return 1 if any(findings.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
