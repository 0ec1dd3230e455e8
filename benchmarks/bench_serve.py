"""Benchmark the repro.serve service: job latency and pool throughput.

Two quantities characterize the service overhead:

``latency``
    Submit→done wall time of a minimal job (zdt1 + NSGA-II, a few
    generations) on an idle single-worker service.  This is the fixed cost
    a job pays for going through HTTP + queue + forked runner instead
    of calling :func:`repro.solve.solve` directly.  On a freshly started
    service that includes the fork server's remaining preload imports.

``throughput``
    Jobs/second draining a batch of sleep-bound jobs
    (``zdt1?delay=...`` — the :class:`~repro.problems.Throttled`
    transform) at worker counts 1, 2 and 4.  Sleep-bound jobs stand in
    for evaluation-bound real workloads (kinetic ODEs, FBA) whose cost is
    not Python CPU, so the pool must scale them even on a single-core CI
    box; the full run asserts a modest scaling floor for 4 workers over 1.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_serve.py           # full
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke   # CI-sized
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time

from _harness import add_output_argument, environment, write_report
from repro.serve import ServeClient, ServeThread

#: (workers list, jobs per worker count, generations, delay seconds,
#:  latency repeats) per mode.
FULL_BUDGET = ([1, 2, 4], 6, 20, 0.01, 3)
SMOKE_BUDGET = ([1, 2], 2, 4, 0.005, 1)

#: Minimum tolerated throughput(4 workers) / throughput(1 worker) in the
#: full run.  Deliberately modest: on a single-core machine the runners'
#: interpreter startup serializes, only the sleep-bound evaluation phase
#: parallelizes.  The smoke run asserts nothing — it only proves the
#: benchmark path works.
FULL_SCALING_FLOOR = 1.2

POPULATION = 12


def _measure_latency(repeats: int, generations: int) -> dict:
    """Submit→done wall time of a minimal job on a 1-worker service."""
    times = []
    with tempfile.TemporaryDirectory() as base:
        with ServeThread(base, workers=1) as app:
            client = ServeClient(port=app.port, timeout=300)
            for index in range(repeats):
                started = time.perf_counter()
                job = client.submit(problem="zdt1", algorithm="nsga2",
                                    seed=index, generations=generations,
                                    population=POPULATION, telemetry=False)
                client.wait(job["id"], timeout=300, interval=0.02)
                times.append(time.perf_counter() - started)
    return {"repeats": repeats, "best_s": round(min(times), 4),
            "mean_s": round(sum(times) / len(times), 4)}


def _measure_throughput(workers: int, jobs: int, generations: int,
                        delay: float) -> dict:
    """Drain ``jobs`` sleep-bound jobs with ``workers`` workers."""
    with tempfile.TemporaryDirectory() as base:
        with ServeThread(base, workers=workers) as app:
            client = ServeClient(port=app.port, timeout=600)
            started = time.perf_counter()
            submitted = [
                client.submit(problem="zdt1?delay=%g" % delay,
                              algorithm="nsga2", seed=index,
                              generations=generations, population=POPULATION,
                              telemetry=False)
                for index in range(jobs)
            ]
            for job in submitted:
                record = client.wait(job["id"], timeout=600, interval=0.05)
                assert record["state"] == "done", record
            elapsed = time.perf_counter() - started
    return {"workers": workers, "jobs": jobs, "elapsed_s": round(elapsed, 4),
            "jobs_per_s": round(jobs / elapsed, 4)}


def run_benchmark(workers_list: list, jobs: int, generations: int,
                  delay: float, latency_repeats: int) -> dict:
    """Run the latency and throughput measurements; returns the record."""
    latency = _measure_latency(latency_repeats, generations=5)
    print("latency  submit->done  best %6.2f s  mean %6.2f s"
          % (latency["best_s"], latency["mean_s"]))
    throughput = []
    for workers in workers_list:
        row = _measure_throughput(workers, jobs, generations, delay)
        throughput.append(row)
        print("workers %d  %2d jobs  %7.2f s  %6.3f jobs/s"
              % (row["workers"], row["jobs"], row["elapsed_s"],
                 row["jobs_per_s"]))
    scaling = round(throughput[-1]["jobs_per_s"] / throughput[0]["jobs_per_s"], 3)
    print("scaling (%d workers vs %d): %.2fx"
          % (workers_list[-1], workers_list[0], scaling))
    return {
        "problem": "zdt1?delay=%g" % delay,
        "algorithm": "nsga2",
        "population": POPULATION,
        "generations": generations,
        "latency": latency,
        "throughput": throughput,
        "scaling": scaling,
    }


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced budget, no scaling floor (CI regression guard only)",
    )
    add_output_argument(parser, "BENCH_serve.json")
    args = parser.parse_args(argv)
    workers_list, jobs, generations, delay, repeats = (
        SMOKE_BUDGET if args.smoke else FULL_BUDGET
    )
    record = run_benchmark(workers_list, jobs, generations, delay, repeats)
    payload = {
        "benchmark": "serve",
        "mode": "smoke" if args.smoke else "full",
        **environment(),
        "scaling_floor": None if args.smoke else FULL_SCALING_FLOOR,
        "results": [record],
    }
    write_report(args.output, payload)
    if not args.smoke and record["scaling"] < FULL_SCALING_FLOOR:
        print(
            "FAIL: %d-worker scaling %.2fx below the %.1fx floor"
            % (workers_list[-1], record["scaling"], FULL_SCALING_FLOOR),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
