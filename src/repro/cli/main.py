"""Argument parsing and subcommand implementations of ``python -m repro``.

Each registered experiment's parameter schema is turned into ``--flags``
automatically (underscores become dashes, booleans become switches), so the
CLI never drifts from the registry: a new experiment registration is a new
CLI-runnable command with zero code here.

Example
-------
``main`` is callable in-process, which is how the smoke tests drive it::

    from repro.cli.main import main

    exit_code = main(["run", "photosynthesis-table1", "--seed", "0"])
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from repro.core.artifacts import (
    RunManifest,
    create_run_dir,
    dumps_json,
    front_payload,
    individuals_from_front,
    load_front_payload,
    load_manifest,
    load_result,
    record_run,
    record_solve_run,
    write_front_csv,
)
from repro.core.registry import (
    Experiment,
    UnknownExperimentError,
    experiment_names,
    get_experiment,
)
from repro.core.report import format_table
from repro.exceptions import CheckpointError, ConfigurationError
from repro.runtime.checkpoint import list_checkpoints
from repro.solve.registry import UnknownSolverError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.telemetry import TelemetryData
    from repro.solve.request import SolveRequest

__all__ = ["main", "build_parser"]

_PROG = "repro"


# ---------------------------------------------------------------------------
# Parser construction
# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (subcommands, shared flags)."""
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="Run, resume and export the canned paper experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list every registered experiment"
    )
    list_parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    describe_parser = subparsers.add_parser(
        "describe", help="show an experiment's parameters and artifacts"
    )
    describe_parser.add_argument("experiment", help="registry name of the experiment")

    describe_problem_parser = subparsers.add_parser(
        "describe-problem",
        help="show a problem's design space, objectives and parameters",
        description=(
            "Renders one entry of the problem registry: the decision box "
            "(variable names and bounds), the objective senses, the parameter "
            "schema and the transform keys.  Accepts full spec strings "
            "(`repro describe-problem 'zdt1?noise=0.01'`)."
        ),
    )
    describe_problem_parser.add_argument(
        "problem", help="problem name or spec string (see `repro solve --list-problems`)"
    )
    describe_problem_parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    for command, help_text in (
        ("run", "run an experiment and record its artifacts"),
        ("resume", "continue a checkpointed run from its latest checkpoint"),
    ):
        sub = subparsers.add_parser(
            command,
            help=help_text,
            description=(
                "Experiment parameters become --flags; "
                "`%s describe <experiment>` lists them." % _PROG
            ),
        )
        sub.add_argument("experiment", help="registry name of the experiment")
        sub.add_argument(
            "--output-dir",
            default="runs",
            help="base directory for run artifacts (default: runs)",
        )
        sub.add_argument(
            "--no-artifacts",
            action="store_true",
            help="run without writing an artifact directory",
        )
        sub.add_argument(
            "--quiet", action="store_true", help="suppress the result summary"
        )
        sub.add_argument(
            "--timing",
            action="store_true",
            help="include wall-clock columns (non-deterministic) in summaries",
        )

    solve_parser = subparsers.add_parser(
        "solve",
        help="run any registered solver on a named problem",
        description=(
            "Generic solver front door: every algorithm of the solver "
            "registry (see repro.solve) runs on every named problem through "
            "one command, with composable termination flags."
        ),
    )
    solve_parser.add_argument(
        "problem",
        nargs="?",
        default=None,
        help="problem spec: a registered name (photosynthesis, geobacter, "
        "zdt1, ...) optionally with ?key=value parameters and transforms "
        "(`zdt1?n_var=10&noise=0.01`); see --list-problems",
    )
    solve_parser.add_argument(
        "--list-problems",
        action="store_true",
        help="list every registered problem (with its parameter schema) and exit",
    )
    solve_parser.add_argument(
        "--algorithm",
        default="pmo2",
        help=(
            "registered solver name (default: pmo2); pmo2 migrates every 200 "
            "generations, the paper's interval, so a shorter run never migrates"
        ),
    )
    solve_parser.add_argument(
        "--generations",
        type=int,
        default=100,
        help="generation budget (default: 100); always part of the termination",
    )
    solve_parser.add_argument(
        "--max-evaluations",
        type=int,
        default=None,
        help="additionally stop once this many objective evaluations were consumed",
    )
    solve_parser.add_argument(
        "--wall-clock",
        type=float,
        default=None,
        help="additionally stop after this many seconds (non-deterministic)",
    )
    solve_parser.add_argument(
        "--hv-patience",
        type=int,
        default=None,
        help="additionally stop after N generations without hypervolume gain",
    )
    solve_parser.add_argument(
        "--hv-tolerance",
        type=float,
        default=1e-6,
        help="relative hypervolume gain counting as improvement (default: 1e-6)",
    )
    solve_parser.add_argument(
        "--seed", type=int, default=2011, help="master random seed (default: 2011)"
    )
    solve_parser.add_argument(
        "--population",
        type=int,
        default=None,
        help="population size (per island for pmo2)",
    )
    solve_parser.add_argument(
        "--n-workers", type=int, default=1, help="worker processes for evaluation fan-out"
    )
    solve_parser.add_argument(
        "--cache", action="store_true", help="memoize evaluations on a quantized hash"
    )
    solve_parser.add_argument(
        "--cache-dir",
        default=None,
        help="persistent shared evaluation-cache directory (see `repro cache`); "
        "runs and processes pointing at the same directory share one "
        "content-addressed store",
    )
    solve_parser.add_argument(
        "--warm-start",
        default=None,
        help="seed the initial population from a prior run directory or "
        "front.json (NSGA-II; remainder of the population sampled as usual)",
    )
    solve_parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="checkpoint directory (resumes from the latest checkpoint if present)",
    )
    solve_parser.add_argument(
        "--checkpoint-interval",
        type=int,
        default=10,
        help="generations between checkpoints (default: 10)",
    )
    solve_parser.add_argument(
        "--stream",
        action="store_true",
        help="print one line per generation (the on_generation event stream)",
    )
    solve_parser.add_argument(
        "--live",
        action="store_true",
        help="render a live progress line per generation (rate, front, hypervolume)",
    )
    solve_parser.add_argument(
        "--telemetry",
        action="store_true",
        help="record trace.jsonl / timeseries.csv into a fresh run directory "
        "(see `repro trace` / `repro stats`)",
    )
    solve_parser.add_argument(
        "--telemetry-dir",
        default=None,
        help="record telemetry into this directory instead of a fresh one, "
        "appending to any existing record (implies --telemetry)",
    )
    solve_parser.add_argument(
        "--output-dir",
        default="runs",
        help="base directory for telemetry run artifacts (default: runs)",
    )
    solve_parser.add_argument(
        "--front-json",
        default=None,
        help="write the final front payload (JSON) to this file",
    )
    solve_parser.add_argument(
        "--quiet", action="store_true", help="suppress the result summary"
    )
    solve_parser.add_argument(
        "--timing",
        action="store_true",
        help="include wall-clock columns (non-deterministic) in the ledger summary",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the optimization service (HTTP + SSE, durable job queue)",
        description=(
            "Serves solve jobs over HTTP: POST /jobs submits a job, "
            "GET /jobs/{id}/events streams progress as SSE, "
            "GET /jobs/{id}/result returns the finished front.  Jobs are "
            "durable — a killed server restarts, rescans --data-dir and "
            "resumes interrupted jobs from their latest checkpoint.  See "
            "docs/serving.md."
        ),
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8765,
        help="bind port; 0 picks a free port and prints it (default: 8765)",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="concurrent job subprocesses (default: 2)",
    )
    serve_parser.add_argument(
        "--data-dir",
        default="serve-data",
        help="durable job-queue directory (default: serve-data)",
    )
    serve_parser.add_argument(
        "--cache-dir",
        default=None,
        help="persistent evaluation-cache directory shared by every job "
        "runner; repeated jobs on identical specs answer from the cache",
    )

    cache_parser = subparsers.add_parser(
        "cache",
        help="inspect and maintain a persistent evaluation cache",
        description=(
            "Maintenance of the content-addressed evaluation cache used by "
            "`repro solve --cache-dir` and `repro serve --cache-dir`: show "
            "store statistics, expire old entries, or drop everything.  The "
            "cache is disposable — clearing costs recomputation, never "
            "correctness."
        ),
    )
    cache_parser.add_argument(
        "action", choices=["stats", "gc", "clear"], help="maintenance action"
    )
    cache_parser.add_argument("cache_dir", help="cache directory")
    cache_parser.add_argument(
        "--max-entries",
        type=int,
        default=None,
        help="gc: keep only the newest N entries",
    )
    cache_parser.add_argument(
        "--older-than",
        type=float,
        default=None,
        metavar="DAYS",
        help="gc: drop entries older than this many days",
    )
    cache_parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    export_parser = subparsers.add_parser(
        "export", help="re-emit a recorded run's front or payload"
    )
    export_parser.add_argument("run_dir", help="recorded run directory")
    export_parser.add_argument(
        "--what",
        choices=["front", "result", "manifest"],
        default="front",
        help="which artifact to export (default: front)",
    )
    export_parser.add_argument(
        "--format",
        choices=["json", "csv"],
        default="json",
        help="output format (csv applies to fronts only)",
    )
    export_parser.add_argument(
        "--output", default=None, help="output file (default: stdout)"
    )
    export_parser.add_argument(
        "--check",
        action="store_true",
        help="verify the front round-trips bitwise through Individual objects",
    )

    trace_parser = subparsers.add_parser(
        "trace",
        help="summarize the span trace of a telemetry-recorded run",
        description=(
            "Aggregates trace.jsonl by span name (count, total, mean, max "
            "seconds, share of the root span) and lists the slowest "
            "individual spans — the first place to look when a run is slow."
        ),
    )
    trace_parser.add_argument("run_dir", help="telemetry-recorded run directory")
    trace_parser.add_argument(
        "--top",
        type=int,
        default=10,
        help="number of slowest individual spans to list (default: 10)",
    )
    trace_parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    stats_parser = subparsers.add_parser(
        "stats",
        help="render the run summary and convergence series of a recorded run",
        description=(
            "Derives a run summary from the recorded files: generation, "
            "evaluations and front quality from the last timeseries.csv row, "
            "wall time from the root spans of trace.jsonl, cache hit rates "
            "from ledger.json; then renders the per-generation convergence "
            "series."
        ),
    )
    stats_parser.add_argument("run_dir", help="telemetry-recorded run directory")
    stats_parser.add_argument(
        "--series",
        type=int,
        default=10,
        help="maximum convergence-series rows to show (default: 10, 0 hides them)",
    )
    stats_parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    return parser


def _schema_parser(experiment: Experiment, command: str) -> argparse.ArgumentParser:
    """Secondary parser exposing one experiment's parameter schema as flags."""
    parser = argparse.ArgumentParser(
        prog="%s %s %s" % (_PROG, command, experiment.name), add_help=False
    )
    for parameter in experiment.parameters:
        if parameter.type is bool:
            parser.add_argument(
                parameter.cli_flag,
                dest=parameter.name,
                action="store_true",
                default=None,
                help=parameter.help,
            )
        else:
            parser.add_argument(
                parameter.cli_flag,
                dest=parameter.name,
                type=parameter.type,
                default=None,
                help="%s (default: %s)" % (parameter.help, parameter.default),
            )
    return parser


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------
def _cmd_list(args: argparse.Namespace) -> int:
    experiments = [get_experiment(name) for name in experiment_names()]
    if args.json:
        print(
            dumps_json(
                {
                    experiment.name: {
                        "title": experiment.title,
                        "reference": experiment.reference,
                        "supports_checkpoint": experiment.supports_checkpoint,
                    }
                    for experiment in experiments
                }
            )
        )
        return 0
    rows = [
        [experiment.name, experiment.reference, experiment.title]
        for experiment in experiments
    ]
    print(format_table(["experiment", "paper", "title"], rows))
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    experiment = get_experiment(args.experiment)
    print("%s — %s" % (experiment.name, experiment.title))
    print("reproduces: %s" % experiment.reference)
    print()
    print(experiment.description)
    print()
    rows = [
        [
            parameter.cli_flag,
            parameter.type.__name__,
            str(parameter.default),
            parameter.help,
        ]
        for parameter in experiment.parameters
    ]
    print(format_table(["flag", "type", "default", "description"], rows))
    print()
    print("artifacts: %s" % ", ".join(experiment.artifact_names))
    print("resumable (repro resume): %s" % ("yes" if experiment.supports_checkpoint else "no"))
    print()
    print("example: python -m repro run %s --seed 0" % experiment.name)
    return 0


def _cmd_describe_problem(args: argparse.Namespace) -> int:
    """Render one problem-registry entry (`repro describe-problem`)."""
    from repro.problems import describe_problem

    payload = describe_problem(args.problem)
    if args.json:
        print(dumps_json(payload))
        return 0
    print("%s — %s" % (payload["name"], payload["title"]))
    if payload["description"]:
        print()
        print(payload["description"])
    print()
    print(
        format_table(
            ["objective", "sense"],
            [[entry["name"], entry["sense"]] for entry in payload["objectives"]],
        )
    )
    print()
    variables = payload["space"]["variables"]
    shown = variables[:12]
    rows = [
        [variable["name"], variable["kind"], "[%g, %g]" % (variable["lower"], variable["upper"])]
        for variable in shown
    ]
    print("design space (%d variables):" % payload["n_var"])
    print(format_table(["variable", "kind", "range"], rows))
    if len(variables) > len(shown):
        print("... and %d more variables" % (len(variables) - len(shown)))
    for heading, entries in (
        ("parameters (append as ?name=value):", payload["parameters"]),
        ("transforms (append as ?name=value, stackable):", payload["transforms"]),
    ):
        if not entries:
            continue
        print()
        print(heading)
        print(
            format_table(
                ["name", "type", "default", "description"],
                [
                    [entry["name"], entry["type"], str(entry["default"]), entry["help"]]
                    for entry in entries
                ],
            )
        )
    print()
    print("example: python -m repro solve '%s' --algorithm nsga2" % payload["spec"])
    return 0


def _cmd_list_problems(args: argparse.Namespace) -> int:
    """Render the problem registry (`repro solve --list-problems`)."""
    from repro.problems import TRANSFORM_PARAMETERS, get_problem, problem_names

    rows = []
    for name in problem_names():
        spec = get_problem(name)
        parameters = ", ".join(parameter.name for parameter in spec.parameters)
        rows.append([name, parameters or "-", spec.title])
    print(format_table(["problem", "parameters", "title"], rows))
    print()
    print(
        "transform keys (any problem, `name?key=value`): %s"
        % ", ".join(parameter.name for parameter in TRANSFORM_PARAMETERS)
    )
    print("details: python -m repro describe-problem <problem>")
    return 0


def _run_experiment(
    args: argparse.Namespace, extras: Sequence[str], resume: bool
) -> int:
    experiment = get_experiment(args.experiment)
    if resume and not experiment.supports_checkpoint:
        raise ConfigurationError(
            "experiment %r does not support checkpointing; use `%s run` instead"
            % (experiment.name, _PROG)
        )
    schema = _schema_parser(experiment, "resume" if resume else "run")
    namespace, leftover = schema.parse_known_args(list(extras))
    if leftover:
        raise ConfigurationError(
            "unknown flag(s) %s for experiment %r — see `%s describe %s`"
            % (" ".join(leftover), experiment.name, _PROG, experiment.name)
        )
    overrides: dict[str, Any] = {
        name: value for name, value in vars(namespace).items() if value is not None
    }
    if resume:
        if not overrides.get("checkpoint_dir"):
            raise ConfigurationError("`%s resume` requires --checkpoint-dir" % _PROG)
        # Symmetric to the stale-checkpoint guard below: resuming from a
        # directory with no checkpoints would silently recompute the whole
        # run from generation 0 while claiming to have resumed it.
        if not list_checkpoints(overrides["checkpoint_dir"]):
            raise ConfigurationError(
                "checkpoint directory %s holds no checkpoints to resume from; "
                "check the path, or start the run with `%s run %s`"
                % (overrides["checkpoint_dir"], _PROG, args.experiment)
            )
    if not resume and overrides.get("checkpoint_dir"):
        # A fresh `run` must never silently restore leftover state: stale
        # checkpoints from another seed/parameter set would be restored by
        # the optimizer and recorded under this run's manifest.
        stale = list_checkpoints(overrides["checkpoint_dir"])
        if stale:
            raise ConfigurationError(
                "checkpoint directory %s already holds %d checkpoint(s); use "
                "`%s resume %s` to continue that run, or point --checkpoint-dir "
                "at a fresh directory"
                % (overrides["checkpoint_dir"], len(stale), _PROG, args.experiment)
            )
    parameters = experiment.validate_parameters(overrides)
    result = experiment.function(**parameters)
    if not args.quiet and experiment.render is not None:
        print(experiment.render(result))
    ledger = getattr(result, "ledger", None)
    if not args.quiet and ledger is not None:
        print()
        print(ledger.summary(timing=args.timing))
    if not args.no_artifacts:
        run_dir = record_run(
            experiment, result, parameters, base_dir=args.output_dir
        )
        print("artifacts: %s" % run_dir)
    return 0


def _solve_checkpoint_guard(
    request: "SolveRequest", checkpoint_dir: str, warm_start: "str | None"
) -> None:
    """Refuse a checkpoint directory that belongs to a different solve run.

    `repro solve` resumes from the latest checkpoint automatically, so —
    symmetric to the stale-checkpoint guard of `repro run` — it must never
    silently adopt state recorded for another problem/algorithm/seed.  The
    identifying parameters are pinned in a ``solve.json`` sidecar written on
    the first run against the directory.
    """
    import json

    directory = Path(checkpoint_dir)
    sidecar = directory / "solve.json"
    pinned = ("problem", "algorithm", "seed", "population")
    current = {name: getattr(request, name) for name in pinned}
    # Pinned only when set, so sidecars written before the flag existed
    # still match their original runs.
    if warm_start is not None:
        current["warm_start"] = warm_start
    if sidecar.exists():
        recorded = json.loads(sidecar.read_text(encoding="utf-8"))
        if recorded != current:
            raise ConfigurationError(
                "checkpoint directory %s belongs to `repro solve` run %s, "
                "not %s; rerun with the original parameters or point "
                "--checkpoint-dir at a fresh directory"
                % (directory, dumps_json(recorded), dumps_json(current))
            )
        return
    if list_checkpoints(directory):
        raise ConfigurationError(
            "checkpoint directory %s holds checkpoints but no solve.json "
            "sidecar (was it written by `repro run`?); restoring unknown "
            "state would mislabel the result — point --checkpoint-dir at a "
            "fresh directory" % directory
        )
    directory.mkdir(parents=True, exist_ok=True)
    sidecar.write_text(dumps_json(current) + "\n", encoding="utf-8")


def _solve_run_dir(args: argparse.Namespace) -> Path:
    """Resolve (or create) the run directory a telemetry-recorded solve uses."""
    if args.telemetry_dir is not None:
        directory = Path(args.telemetry_dir)
        directory.mkdir(parents=True, exist_ok=True)
        return directory
    safe_problem = "".join(
        character if character.isalnum() or character in "-_" else "-"
        for character in args.problem
    )
    return create_run_dir(args.output_dir, "solve-%s" % safe_problem, args.seed)


def _cmd_solve(args: argparse.Namespace) -> int:
    """Run one registered solver on one named problem (`repro solve`)."""
    from repro.moo.metrics import hypervolume
    from repro.solve import CallbackObserver, SolveRequest

    if args.list_problems:
        return _cmd_list_problems(args)
    if args.problem is None:
        raise ConfigurationError(
            "a problem spec is required (or use --list-problems to see the registry)"
        )
    args.telemetry = args.telemetry or args.telemetry_dir is not None
    request = SolveRequest.from_namespace(args)
    request.validate()
    if args.checkpoint_dir is not None:
        _solve_checkpoint_guard(request, args.checkpoint_dir, args.warm_start)
    observers = []
    if args.stream:
        observers.append(
            CallbackObserver(
                on_generation=lambda event: print(
                    "generation %4d  evaluations %8d  front %4d"
                    % (event.generation, event.evaluations, len(event.front))
                ),
                on_migration=lambda event: print(
                    "generation %4d  migration #%d" % (event.generation, event.migrations)
                ),
                on_checkpoint=lambda event: print(
                    "generation %4d  checkpoint %s" % (event.generation, event.path)
                ),
            )
        )
    if args.live:
        from repro.obs import LiveProgress

        observers.append(LiveProgress())
    run_dir: Path | None = None
    host_settings = {
        "n_workers": args.n_workers,
        "cache": args.cache,
        "cache_dir": args.cache_dir,
        "warm_start": args.warm_start,
    }
    with ExitStack() as stack:
        if request.telemetry:
            from repro.obs import RunTelemetry

            run_dir = _solve_run_dir(args)
            observers.append(stack.enter_context(RunTelemetry(run_dir)))
        problem, result = request.run(
            observers=observers, checkpoint_dir=args.checkpoint_dir, **host_settings
        )
    if run_dir is not None:
        record_solve_run(
            run_dir, problem, result, parameters=request.as_dict() | host_settings
        )
        print("artifacts: %s" % run_dir)
    if not args.quiet:
        front = result.front_objectives()
        rows = [
            ["problem", result.problem],
            ["algorithm", result.algorithm],
            ["generations", result.generations],
            ["evaluations", result.evaluations],
            ["migrations", result.migrations],
            ["front size", front.shape[0]],
        ]
        if front.size:
            rows.append(["hypervolume", hypervolume(front)])
        print(format_table(["quantity", "value"], rows))
        print()
        print(result.ledger.summary(timing=args.timing))
    if args.front_json is not None:
        payload = front_payload(
            result.front_objectives(),
            result.front_decisions(),
            objective_names=problem.objective_names,
            objective_senses=problem.objective_senses,
            label=result.algorithm,
        )
        Path(args.front_json).write_text(dumps_json(payload) + "\n", encoding="utf-8")
        print("wrote %s" % args.front_json)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the optimization service until interrupted (`repro serve`)."""
    from repro.serve import run_app

    if args.workers < 0:
        raise ConfigurationError("--workers must be non-negative")

    def announce(port: int) -> None:
        # The one line wrapping scripts parse; printed only once listening,
        # so with `--port 0` its appearance also means "the OS-picked port
        # is bound and ready".
        print("serving on http://%s:%d (data: %s, workers: %d)"
              % (args.host, port, args.data_dir, args.workers))
        sys.stdout.flush()

    run_app(
        args.data_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=args.cache_dir,
        announce=announce,
    )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    if args.check and args.what != "front":
        raise ConfigurationError(
            "--check only applies to --what front (nothing is verified for %r)"
            % args.what
        )
    if args.what == "front":
        payload = load_front_payload(run_dir)
        if args.check:
            # Objectives and decisions are rebuilt from the re-hydrated
            # Individuals; front-level data Individuals do not carry (names,
            # senses, label and the per-point info list) is copied over.
            individuals = individuals_from_front(payload)
            rebuilt = front_payload(
                [individual.objectives for individual in individuals],
                (
                    [individual.x for individual in individuals]
                    if "decisions" in payload
                    else None
                ),
                objective_names=payload.get("objective_names"),
                objective_senses=payload.get("objective_senses"),
                label=payload.get("label"),
                info=payload.get("info"),
            )
            if dumps_json(rebuilt) != dumps_json(payload):
                print("round-trip check FAILED for %s" % run_dir, file=sys.stderr)
                return 1
            # Status goes to stderr so `--check` composes with piping the
            # JSON payload on stdout into jq & friends.
            print("round-trip check OK (%d individuals)" % len(individuals), file=sys.stderr)
        if args.format == "csv":
            if args.output is None:
                raise ConfigurationError("--format csv requires --output FILE")
            write_front_csv(args.output, payload)
            print("wrote %s" % args.output)
            return 0
    elif args.format == "csv":
        raise ConfigurationError("--format csv only applies to --what front")
    elif args.what == "result":
        payload = load_result(run_dir)
    else:
        payload = load_manifest(run_dir).as_dict()
    text = dumps_json(payload)
    if args.output is not None:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
        print("wrote %s" % args.output)
    else:
        print(text)
    return 0


def _span_aggregate(spans: Sequence[dict]) -> list[dict]:
    """Aggregate span records by name: count, total/mean/max duration."""
    groups: dict[str, dict] = {}
    for span in spans:
        entry = groups.setdefault(
            span["name"], {"name": span["name"], "count": 0, "total": 0.0, "max": 0.0}
        )
        entry["count"] += 1
        entry["total"] += span["duration"]
        entry["max"] = max(entry["max"], span["duration"])
    for entry in groups.values():
        entry["mean"] = entry["total"] / entry["count"]
    return sorted(groups.values(), key=lambda entry: -entry["total"])


def _root_spans(spans: Sequence[dict]) -> list[dict]:
    """The spans without a parent; their durations add up to the run's wall time."""
    return [span for span in spans if span.get("parent_id") is None]


def _cmd_trace(args: argparse.Namespace) -> int:
    """Summarize a recorded span trace (`repro trace`)."""
    from repro.obs.telemetry import TRACE_NAME, load_telemetry

    if not (Path(args.run_dir) / TRACE_NAME).is_file():
        raise FileNotFoundError(
            "%s has no %s — was the run recorded with telemetry?"
            % (args.run_dir, TRACE_NAME)
        )
    spans = load_telemetry(args.run_dir).spans
    aggregated = _span_aggregate(spans)
    roots = _root_spans(spans)
    wall = sum(span["duration"] for span in roots)
    slowest = sorted(spans, key=lambda span: -span["duration"])[: max(args.top, 0)]
    if args.json:
        print(
            dumps_json(
                {"spans": len(spans), "wall": wall, "by_name": aggregated,
                 "slowest": slowest}
            )
        )
        return 0
    print("%d spans, %.3f s under %d root span(s)" % (len(spans), wall, len(roots)))
    print()
    rows = [
        [
            entry["name"],
            entry["count"],
            "%.4f" % entry["total"],
            "%.6f" % entry["mean"],
            "%.6f" % entry["max"],
            ("%.1f%%" % (100.0 * entry["total"] / wall)) if wall > 0 else "-",
        ]
        for entry in aggregated
    ]
    print(format_table(["span", "count", "total s", "mean s", "max s", "share"], rows))
    if slowest:
        print()
        print("slowest spans:")
        rows = [
            [
                "%.6f" % span["duration"],
                span["name"],
                "%.3f" % span["start"],
                ", ".join(
                    "%s=%s" % (key, value)
                    for key, value in sorted(span.get("attributes", {}).items())
                ),
            ]
            for span in slowest
        ]
        print(format_table(["seconds", "span", "start", "attributes"], rows))
    return 0


def _downsample(rows: list, limit: int) -> list:
    """Evenly thin ``rows`` down to ``limit`` entries, keeping first and last."""
    if limit <= 0 or len(rows) <= limit:
        return list(rows)
    if limit == 1:
        return [rows[-1]]
    indices = sorted({round(i * (len(rows) - 1) / (limit - 1)) for i in range(limit)})
    return [rows[index] for index in indices]


def _cache_rate_rows(ledger: dict) -> list:
    """Derive per-level cache hit-rate table rows from a ``ledger.json`` dict.

    Returns one row per cache level (in-memory, then disk) for which the run
    recorded any lookups, and an empty list when evaluation caching was off.
    """
    phases = ledger.get("phases", {}).values()
    rows = []
    for label, hits_key, misses_key in (
        ("memory", "cache_hits", "cache_misses"),
        ("disk", "disk_hits", "disk_misses"),
    ):
        hits = sum(int(phase.get(hits_key, 0)) for phase in phases)
        misses = sum(int(phase.get(misses_key, 0)) for phase in phases)
        if hits or misses:
            rows.append([label, hits, misses, "%.1f %%" % (100.0 * hits / (hits + misses))])
    return rows


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or prune a shared evaluation cache (`repro cache`)."""
    from repro.runtime.diskcache import DiskCache

    directory = Path(args.cache_dir)
    if args.action == "stats" and not (directory / DiskCache.FILENAME).exists():
        raise ConfigurationError(
            "no evaluation cache found under %s (expected %s)"
            % (directory, DiskCache.FILENAME)
        )
    store = DiskCache(directory)
    try:
        if args.action == "stats":
            stats = store.stats()
            if args.json:
                print(dumps_json(stats))
            else:
                print(
                    format_table(
                        ["quantity", "value"],
                        [[name, stats[name]] for name in sorted(stats)],
                    )
                )
            return 0
        if args.action == "gc":
            if args.max_entries is None and args.older_than is None:
                raise ConfigurationError(
                    "cache gc needs a bound: pass --max-entries and/or --older-than"
                )
            removed = store.gc(
                max_entries=args.max_entries, max_age_days=args.older_than
            )
        else:  # clear
            removed = store.clear()
        if args.json:
            print(dumps_json({"action": args.action, "removed": removed}))
        else:
            print("%s: removed %d entries (%d kept)" % (args.action, removed, len(store)))
        return 0
    finally:
        store.close()


#: ``repro stats`` run-table rows read from the last timeseries row:
#: (``--json`` key, table label).
_RUN_ROW_COLUMNS = (
    ("generation", "generation"),
    ("evaluations", "evaluations"),
    ("front_size", "front size"),
    ("feasible_fraction", "feasible fraction"),
    ("hypervolume", "hypervolume"),
    ("igd", "igd"),
)


def _run_summary(data: "TelemetryData") -> dict:
    """Derive the ``repro stats`` run summary from the recorded files.

    Generation, evaluations and front quality come from the last timeseries
    row (after the replay drop of a resumed run); ``wall_s`` is the summed
    duration of the root spans, the figure ``repro trace`` prints; and
    ``evaluations_per_s`` divides the one by the other.  Values the record
    does not hold are ``None``.
    """
    last = data.timeseries[-1] if data.timeseries else {}
    summary = {key: last.get(key) for key, _ in _RUN_ROW_COLUMNS}
    wall = sum(span["duration"] for span in _root_spans(data.spans))
    summary["wall_s"] = wall if data.spans else None
    evaluations = summary["evaluations"]
    summary["evaluations_per_s"] = (
        evaluations / wall if evaluations is not None and wall > 0 else None
    )
    return summary


def _cmd_stats(args: argparse.Namespace) -> int:
    """Render the derived run summary and the convergence series (`repro stats`)."""
    from repro.obs import load_telemetry

    data = load_telemetry(args.run_dir)
    summary = _run_summary(data)
    if args.json:
        print(
            dumps_json(
                {
                    "run": summary,
                    "ledger": data.ledger,
                    "timeseries": _downsample(data.timeseries, args.series),
                }
            )
        )
        return 0
    labels = dict(_RUN_ROW_COLUMNS, wall_s="wall s", evaluations_per_s="evaluations/s")
    rows = [
        [labels[key], value if isinstance(value, int) else "%.6g" % value]
        for key, value in summary.items()
        if value is not None
    ]
    print("run:")
    print(format_table(["quantity", "value"], rows))
    cache_rows = _cache_rate_rows(data.ledger)
    if cache_rows:
        print()
        print("cache:")
        print(format_table(["level", "hits", "misses", "hit rate"], cache_rows))
    series = _downsample(data.timeseries, args.series)
    if series:
        print()
        print("convergence (%d of %d generations):" % (len(series), len(data.timeseries)))
        rows = [
            [
                row.get("generation"),
                row.get("evaluations"),
                row.get("front_size") if row.get("front_size") is not None else "-",
                (
                    "%.6f" % row["hypervolume"]
                    if row.get("hypervolume") is not None
                    else "-"
                ),
                "%.6f" % row["igd"] if row.get("igd") is not None else "-",
            ]
            for row in series
        ]
        print(
            format_table(
                ["generation", "evaluations", "front", "hypervolume", "igd"], rows
            )
        )
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI; returns the process exit code.

    Example
    -------
    ``main(["run", "photosynthesis-table1", "--seed", "0"])`` runs Table 1
    with defaults and records an artifact directory under ``runs/``.
    """
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    if args.command not in ("run", "resume") and extras:
        parser.error("unrecognized arguments: %s" % " ".join(extras))
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "describe":
            return _cmd_describe(args)
        if args.command == "describe-problem":
            return _cmd_describe_problem(args)
        if args.command in ("run", "resume"):
            return _run_experiment(args, extras, resume=args.command == "resume")
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "export":
            return _cmd_export(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "cache":
            return _cmd_cache(args)
    except (UnknownExperimentError, UnknownSolverError) as error:
        # Deliberately narrow: a KeyError raised inside experiment code must
        # surface as a traceback, not masquerade as a mistyped name.
        print("error: %s" % error.args[0], file=sys.stderr)
        return 2
    except (ConfigurationError, CheckpointError, FileNotFoundError) as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout went away (e.g. `repro export ... | head`); exit quietly
        # without a traceback, redirecting further flushes to /dev/null.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    parser.error("unknown command %r" % args.command)  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover - exercised via `python -m`
    sys.exit(main())
