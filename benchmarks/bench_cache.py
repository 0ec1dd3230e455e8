"""Benchmark the persistent evaluation cache: warm-run speedup and hit-rate.

The cache exists to make repeated work cheap: the second run of an identical
optimization should answer (almost) every evaluation from disk instead of
paying for the objective again.  This benchmark quantifies that on an
evaluation-bound workload — ``zdt1?delay=...``, the
:class:`~repro.problems.Throttled` transform standing in for expensive real
objectives (kinetic ODEs, FBA) whose cost is not Python CPU:

``cold``
    A solve against an empty cache directory: full evaluation cost plus the
    cache's write-back overhead.

``warm``
    The identical solve re-run against the populated cache: every lookup
    should hit disk, so wall time collapses to cache probes.

The full run asserts a **5x** warm-over-cold speedup floor and a **90%**
disk hit-rate floor; the smoke run checks the hit-rate and bitwise rules at
a CI-sized budget without timing floors.  Both assert the correctness rule
that makes the numbers trustworthy: the cold, warm and cache-disabled fronts
are bitwise identical.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_cache.py           # full
    PYTHONPATH=src python benchmarks/bench_cache.py --smoke   # CI-sized
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time

from _harness import add_output_argument, environment, write_report
from repro.core.artifacts import dumps_json, front_payload
from repro.problems import build_problem
from repro.solve import solve

#: (problem spec, population, generations, seed) per mode.
FULL_BUDGET = ("zdt1?n_var=8&delay=0.005", 24, 30, 2011)
SMOKE_BUDGET = ("zdt1?n_var=8&delay=0.003", 12, 5, 2011)

FULL_SPEEDUP_FLOOR = 5.0
FULL_HIT_RATE_FLOOR = 0.9


def _front_text(result, problem) -> str:
    return dumps_json(
        front_payload(
            result.front_objectives(),
            result.front_decisions(),
            objective_names=problem.objective_names,
            objective_senses=problem.objective_senses,
            label=result.algorithm,
        )
    )


def _solve(problem, population, generations, seed, cache_dir=None):
    started = time.perf_counter()
    result = solve(
        problem,
        algorithm="nsga2",
        seed=seed,
        termination=generations,
        population_size=population,
        cache_dir=cache_dir,
    )
    return result, time.perf_counter() - started


def run_benchmark(spec: str, population: int, generations: int, seed: int) -> dict:
    """Measure cold/warm cached solves against the cache-disabled baseline."""
    problem = build_problem(spec)
    baseline, baseline_seconds = _solve(problem, population, generations, seed)
    with tempfile.TemporaryDirectory() as cache_dir:
        cold, cold_seconds = _solve(
            problem, population, generations, seed, cache_dir=cache_dir
        )
        warm, warm_seconds = _solve(
            problem, population, generations, seed, cache_dir=cache_dir
        )
    reference = _front_text(baseline, problem)
    if _front_text(cold, problem) != reference or _front_text(warm, problem) != reference:
        raise AssertionError(
            "cache changed the result: cold/warm fronts differ from the "
            "cache-disabled baseline"
        )
    hit_rate = warm.ledger.disk_hit_rate
    record = {
        "problem": spec,
        "population": population,
        "generations": generations,
        "seed": seed,
        "baseline_seconds": round(baseline_seconds, 4),
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "speedup": round(cold_seconds / warm_seconds, 2) if warm_seconds else float("inf"),
        "warm_disk_hits": warm.ledger.total_disk_hits,
        "warm_disk_hit_rate": round(hit_rate, 4),
        "warm_evaluations": warm.ledger.total_evaluations,
        "bitwise_identical": True,
    }
    print(
        "cold %.2fs  warm %.2fs  speedup %.1fx  disk hit rate %.1f%%  "
        "(baseline without cache %.2fs)"
        % (
            cold_seconds,
            warm_seconds,
            record["speedup"],
            100.0 * hit_rate,
            baseline_seconds,
        )
    )
    return record


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced budget, no timing floors (CI regression guard only)",
    )
    add_output_argument(parser, "BENCH_cache.json")
    args = parser.parse_args(argv)
    spec, population, generations, seed = SMOKE_BUDGET if args.smoke else FULL_BUDGET
    record = run_benchmark(spec, population, generations, seed)
    payload = {
        "benchmark": "cache",
        "mode": "smoke" if args.smoke else "full",
        **environment(),
        "speedup_floor": None if args.smoke else FULL_SPEEDUP_FLOOR,
        "hit_rate_floor": None if args.smoke else FULL_HIT_RATE_FLOOR,
        "results": [record],
    }
    write_report(args.output, payload)
    failures = []
    # The warm run re-solves an identical task: nearly every lookup must be
    # answered from disk, in smoke mode too (hit-rate is budget-independent).
    if record["warm_disk_hit_rate"] < FULL_HIT_RATE_FLOOR:
        failures.append(
            "disk hit rate %.1f%% below the %.0f%% floor"
            % (100.0 * record["warm_disk_hit_rate"], 100.0 * FULL_HIT_RATE_FLOOR)
        )
    if not args.smoke and record["speedup"] < FULL_SPEEDUP_FLOOR:
        failures.append(
            "warm speedup %.2fx below the %.1fx floor"
            % (record["speedup"], FULL_SPEEDUP_FLOOR)
        )
    for failure in failures:
        print("FAIL: %s" % failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
