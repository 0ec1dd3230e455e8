"""Runtime scaling — process-pool fan-out and memoization on the real biology.

The paper motivates PMO2 with the cost of the expensive objectives; this
benchmark quantifies what the :mod:`repro.runtime` layer buys on the
photosynthesis problem:

* **pool speedup** — one batch of Calvin-cycle ODE evaluations (the paper's
  expensive model, ~0.3 s per design, from the ``tests/oracles/ode`` oracle)
  executed serially versus fanned out over a 4-worker
  :class:`~repro.runtime.ProcessPoolEvaluator`;
* **determinism** — the pooled batch must be bitwise identical to serial;
* **cache hit-rate** — a seeded PMO2 run with ``solve(..., cache=True)``,
  reporting the fraction of lookups answered from the memoization cache.

The speedup assertion only applies where the hardware can deliver it
(``os.cpu_count() >= 4``); single-core CI boxes still check determinism and
caching and print the measured numbers.

Batch size can be raised through ``REPRO_BENCH_POOL_EVALS``.
"""

import os
import time

import numpy as np

from conftest import run_once

from repro.core.report import format_table, paper_vs_measured
from repro.moo.archipelago import PMO2Config
from repro.photosynthesis.conditions import REFERENCE_CONDITION
from repro.photosynthesis.problem import PhotosynthesisProblem
from repro.runtime import ProcessPoolEvaluator, SerialEvaluator
from repro.solve import MaxGenerations, solve
from tests.oracles.ode.calvin import CalvinUptakeProblem

#: Decision vectors in the timed ODE batch (~0.3 s each when run serially).
POOL_EVALS = int(os.environ.get("REPRO_BENCH_POOL_EVALS", "8"))
POOL_WORKERS = 4


def _measure_runtime_scaling(seed: int):
    ode_problem = CalvinUptakeProblem(REFERENCE_CONDITION)
    rng = np.random.default_rng(seed)
    X = np.vstack([ode_problem.random_solution(rng) for _ in range(POOL_EVALS)])

    serial = SerialEvaluator()
    started = time.perf_counter()
    serial_batch = serial.evaluate_matrix(ode_problem, X)
    serial_seconds = time.perf_counter() - started

    with ProcessPoolEvaluator(n_workers=POOL_WORKERS) as pool:
        # Bring the pool up (fork + problem unpickling) outside the timed
        # window, so the speedup measures steady-state fan-out rather than
        # process start-up.
        pool.evaluate_matrix(ode_problem, X[:2])
        started = time.perf_counter()
        pooled_batch = pool.evaluate_matrix(ode_problem, X)
        pooled_seconds = time.perf_counter() - started
        fallbacks = pool.fallbacks

    identical = np.array_equal(serial_batch.F, pooled_batch.F)

    # Cache hit-rate of a seeded PMO2 run on the (cheap) steady-state model.
    cached_result = solve(
        PhotosynthesisProblem(REFERENCE_CONDITION),
        algorithm="pmo2",
        config=PMO2Config(island_population_size=24, migration_interval=5),
        seed=seed,
        termination=MaxGenerations(30),
        cache=True,
    )

    return {
        "serial_seconds": serial_seconds,
        "pooled_seconds": pooled_seconds,
        "speedup": serial_seconds / pooled_seconds if pooled_seconds > 0 else float("inf"),
        "identical": identical,
        "fallbacks": fallbacks,
        "cache_hit_rate": cached_result.ledger.cache_hit_rate,
        "cache_hits": cached_result.ledger.total_cache_hits,
        "raw_evaluations": cached_result.ledger.total_evaluations,
    }


def test_runtime_scaling(benchmark, bench_budget):
    _, _, seed = bench_budget
    result = run_once(benchmark, _measure_runtime_scaling, seed)

    print()
    print(
        "[Runtime] ODE batch of %d designs, %d workers on %d cores"
        % (POOL_EVALS, POOL_WORKERS, os.cpu_count() or 1)
    )
    print(
        format_table(
            ["path", "seconds", "speedup"],
            [
                ["serial", result["serial_seconds"], 1.0],
                ["pool(%d)" % POOL_WORKERS, result["pooled_seconds"], result["speedup"]],
            ],
        )
    )
    print(
        paper_vs_measured(
            "Runtime",
            [
                ("pooled == serial (bitwise)", True, result["identical"]),
                ("pool fallbacks", 0, result["fallbacks"]),
                ("cache hit rate", ">0", "%.3f" % result["cache_hit_rate"]),
            ],
        )
    )

    assert result["identical"]
    assert result["fallbacks"] == 0
    assert 0.0 <= result["cache_hit_rate"] < 1.0
    assert result["raw_evaluations"] > 0
    if (os.cpu_count() or 1) >= POOL_WORKERS:
        # The pool must beat serial clearly when the cores exist.
        assert result["speedup"] > 1.5
