"""Benchmark the observability overhead on an instrumented solve.

The tracing design claims the instrumented hot paths are near-free until a
real sink is attached: a disabled tracer hands out one shared no-op span, so
every instrumentation point costs a single attribute check.  This benchmark
measures that claim on a real run (zdt1 + NSGA-II) in three modes:

``off``
    The shipped default — no tracer installed.
``null``
    A :class:`~repro.obs.trace.NullSink` tracer explicitly installed (the
    disabled path again, via the null sink) — what a run looks like the
    moment before real telemetry is attached.
``jsonl``
    Full :class:`~repro.obs.RunTelemetry`: JSONL span trace and the
    per-generation timeseries with convergence metrics.

The ``null`` mode must stay within 2% of ``off`` (that is the acceptance
floor asserted here); the ``jsonl`` overhead is reported for the record —
it pays for span materialization, file appends and per-generation
hypervolumes, and is expected to cost real percent on toy problems whose
evaluations are microseconds (the paper's kinetic problems dwarf it).

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py           # full
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --smoke   # CI-sized
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time

from _harness import add_output_argument, environment, write_report
from repro.obs import NullSink, RunTelemetry, Tracer, use_tracer
from repro.problems import build_problem
from repro.solve import solve

#: (population, generations, best-of repeats) per mode.
FULL_BUDGET = (32, 30, 12)
SMOKE_BUDGET = (16, 10, 3)

#: Maximum tolerated (t_null - t_off) / t_off.  The full run asserts the
#: design target; the smoke run only guards against gross regressions, since
#: CI machines are too noisy for single-digit-percent timing assertions.
FULL_FLOOR = 0.02
SMOKE_FLOOR = 0.25


def _solve_once(population: int, generations: int) -> None:
    solve(
        build_problem("zdt1"),
        algorithm="nsga2",
        seed=7,
        termination=generations,
        population_size=population,
        cache=True,
    )


def _run_off(population: int, generations: int) -> None:
    _solve_once(population, generations)


def _run_null(population: int, generations: int) -> None:
    with use_tracer(Tracer(NullSink())):
        _solve_once(population, generations)


def _run_jsonl(population: int, generations: int) -> None:
    with tempfile.TemporaryDirectory() as base:
        with RunTelemetry(base) as telemetry:
            solve(
                build_problem("zdt1"),
                algorithm="nsga2",
                seed=7,
                termination=generations,
                population_size=population,
                cache=True,
                observers=[telemetry],
            )


_MODES = (("off", _run_off), ("null", _run_null), ("jsonl", _run_jsonl))


def run_benchmark(population: int, generations: int, repeats: int) -> dict:
    """Time the three modes; returns the result record."""
    # One untimed pass first, so the first timed mode does not absorb the
    # one-off numpy/allocator warm-up and skew the baseline upward.
    _solve_once(population, generations)
    # Interleave the modes within every repeat (off, null, jsonl, off, ...)
    # so slow drift — thermal, page cache, a background daemon — lands on all
    # three equally instead of biasing whichever mode ran last.  Best-of then
    # discards the noise-contaminated repeats.
    best = {name: float("inf") for name, _ in _MODES}
    for _ in range(repeats):
        for name, run in _MODES:
            start = time.perf_counter()
            run(population, generations)
            best[name] = min(best[name], time.perf_counter() - start)
    t_off, t_null, t_jsonl = best["off"], best["null"], best["jsonl"]
    overhead_null = (t_null - t_off) / t_off
    overhead_jsonl = (t_jsonl - t_off) / t_off
    for mode, seconds, overhead in (
        ("off", t_off, 0.0),
        ("null", t_null, overhead_null),
        ("jsonl", t_jsonl, overhead_jsonl),
    ):
        print(
            "%-6s %8.2f ms  (%+.1f%% vs off)" % (mode, seconds * 1e3, 100 * overhead)
        )
    return {
        "problem": "zdt1",
        "algorithm": "nsga2",
        "population": population,
        "generations": generations,
        "repeats": repeats,
        "t_off_s": round(t_off, 6),
        "t_null_s": round(t_null, 6),
        "t_jsonl_s": round(t_jsonl, 6),
        "overhead_null": round(overhead_null, 4),
        "overhead_jsonl": round(overhead_jsonl, 4),
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced budget and lenient floor for CI (regression guard only)",
    )
    add_output_argument(parser, "BENCH_obs.json")
    args = parser.parse_args(argv)
    population, generations, repeats = SMOKE_BUDGET if args.smoke else FULL_BUDGET
    record = run_benchmark(population, generations, repeats)
    floor = SMOKE_FLOOR if args.smoke else FULL_FLOOR
    payload = {
        "benchmark": "obs-overhead",
        "mode": "smoke" if args.smoke else "full",
        **environment(),
        "overhead_floor": floor,
        "results": [record],
    }
    write_report(args.output, payload)
    if record["overhead_null"] > floor:
        print(
            "FAIL: null-sink overhead %.1f%% above the %.0f%% floor"
            % (100 * record["overhead_null"], 100 * floor),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
