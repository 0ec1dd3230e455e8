"""Benchmark the batch-first problem contract: matrix path vs scalar loop.

For every vectorized built-in problem this times
:meth:`~repro.problems.base.Problem.evaluate_matrix` on one ``(n, n_var)``
decision matrix against the equivalent row-by-row loop (a batch of one per
design — what the scalar-first API used to do on problems without a
vectorized override), asserting bitwise agreement on the way, and writes a
machine-readable ``BENCH_problem_eval.json`` so the perf trajectory
accumulates data points across commits.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_problem_eval.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_problem_eval.py --smoke    # CI-sized

The full sweep covers batch sizes {64, 256, 1024, 4096}; the smoke sweep
trims that so CI can assert the matrix path still agrees with (and beats)
the row loop in seconds, not minutes.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from _harness import add_output_argument, best_of, environment, write_report
from repro.problems import build_problem

#: Problem specs benchmarked (all vectorized built-ins, plus one transform
#: stack to show that wrappers keep the columnar path hot).
SPECS = (
    "schaffer",
    "fonseca",
    "zdt1",
    "zdt2",
    "zdt3",
    "zdt6",
    "dtlz2",
    "bnh",
    "kursawe",
    "zdt1?noise=0.01",
    "zdt1?normalized=1&penalty=10",
)

FULL_SIZES = (64, 256, 1024, 4096)
SMOKE_SIZES = (64, 256)

_REPEATS = {"matrix": 5, "rows": 1}



def _bench_case(spec: str, n: int) -> dict:
    problem = build_problem(spec)
    X = np.random.default_rng(n * 31 + 7).uniform(
        problem.lower_bounds, problem.upper_bounds, size=(n, problem.n_var)
    )

    t_matrix, batch = best_of(lambda: problem.evaluate_matrix(X), _REPEATS["matrix"])

    def rows():
        return np.vstack([problem.evaluate_matrix(row[None, :]).F for row in X])

    t_rows, row_F = best_of(rows, _REPEATS["rows"])
    assert np.array_equal(batch.F, row_F), "matrix/row-loop disagreement on %s" % spec
    if batch.n_con:
        row_G = np.vstack([problem.evaluate_matrix(row[None, :]).G for row in X])
        assert np.array_equal(batch.G, row_G), "constraint disagreement on %s" % spec
    speedup = t_rows / t_matrix if t_matrix > 0 else float("inf")
    return {
        "problem": spec,
        "n": n,
        "n_var": problem.n_var,
        "t_matrix_s": round(t_matrix, 6),
        "t_rows_s": round(t_rows, 6),
        "rows_per_s_matrix": round(n / t_matrix) if t_matrix > 0 else None,
        "speedup": round(speedup, 2),
    }


def run_sweep(sizes: tuple[int, ...]) -> list[dict]:
    """Benchmark every (problem, batch size) combination."""
    records = []
    for spec in SPECS:
        for n in sizes:
            record = _bench_case(spec, n)
            records.append(record)
            print(
                "%-28s n=%5d  matrix %8.3f ms  rows %9.3f ms  (%.0fx)"
                % (
                    spec,
                    n,
                    record["t_matrix_s"] * 1e3,
                    record["t_rows_s"] * 1e3,
                    record["speedup"],
                )
            )
    return records


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced sweep for CI (agreement + throughput sanity, in seconds)",
    )
    add_output_argument(parser, "BENCH_problem_eval.json")
    args = parser.parse_args(argv)
    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    records = run_sweep(sizes)
    payload = {
        "benchmark": "problem-matrix-vs-row-loop",
        "mode": "smoke" if args.smoke else "full",
        **environment(),
        "results": records,
    }
    write_report(args.output, payload)
    # The matrix path must clearly beat per-row dispatch at the largest
    # benchmarked batch of every problem (the smallest batches are dominated
    # by fixed costs, so only the final size is enforced).
    floor = 3.0
    largest = max(sizes)
    failing = [
        r for r in records if r["n"] == largest and r["speedup"] < floor
    ]
    if failing:
        for record in failing:
            print(
                "FAIL: %s at n=%d only %.1fx above the row loop (floor %.0fx)"
                % (record["problem"], record["n"], record["speedup"], floor),
                file=sys.stderr,
            )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
