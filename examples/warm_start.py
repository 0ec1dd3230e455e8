"""Warm-starting and the persistent evaluation cache: pay for work once.

Two features team up to make repeated optimization cheap:

1. ``solve(cache_dir=...)`` keeps a persistent content-addressed cache of
   evaluations on disk, shared across runs and processes — a re-solve of an
   identical task answers from disk instead of re-evaluating;
2. ``solve(warm_start=...)`` seeds the initial population from a previously
   recorded front, so a follow-up solve starts from the Pareto set an
   earlier run already paid for instead of from random samples.

Run with::

    python examples/warm_start.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.core.artifacts import record_solve_run
from repro.problems import build_problem
from repro.solve import solve


def main() -> None:
    # A throttled ZDT1 stands in for an expensive objective (each evaluation
    # sleeps briefly, like an ODE solve or an FBA would cost real time).
    problem = build_problem("zdt1?n_var=6&delay=0.002")

    with tempfile.TemporaryDirectory() as base:
        cache_dir = str(Path(base) / "evalcache")
        run_dir = Path(base) / "first-run"
        run_dir.mkdir()

        # 1. First solve: every evaluation is computed, and written through
        #    to the shared on-disk cache.
        first = solve(problem, algorithm="nsga2", seed=7, termination=10,
                      population_size=16, cache_dir=cache_dir)
        record_solve_run(run_dir, problem, first,
                         parameters={"problem": problem.name, "seed": 7})
        print("first run:  %4d evaluations computed, front size %d"
              % (first.ledger.total_evaluations, len(first.front_objectives())))

        # 2. Identical re-solve: the cache answers everything from disk.
        replay = solve(problem, algorithm="nsga2", seed=7, termination=10,
                       population_size=16, cache_dir=cache_dir)
        print("replay:     %4d evaluations computed, %d disk hits "
              "(hit rate %.0f%%)"
              % (replay.ledger.total_evaluations, replay.ledger.total_disk_hits,
                 100.0 * replay.ledger.disk_hit_rate))

        # 3. Follow-up solve with a different seed, warm-started from the
        #    recorded front and sharing the same cache: it starts from the
        #    previous Pareto set and skips every design seen before.
        second = solve(problem, algorithm="nsga2", seed=8, termination=10,
                       population_size=16, cache_dir=cache_dir,
                       warm_start=str(run_dir))
        saved = second.ledger.total_disk_hits
        print("warm start: %4d evaluations computed, %d answered from cache"
              % (second.ledger.total_evaluations, saved))
        assert replay.ledger.total_evaluations == 0, "replay must be free"
        assert saved > 0, "warm-started run should reuse cached evaluations"


if __name__ == "__main__":
    main()
