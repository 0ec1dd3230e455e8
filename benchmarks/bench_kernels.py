"""Benchmark the vectorized dominance kernels against the naive references.

Sweeps population sizes and objective counts, times each kernel of
:mod:`repro.moo.kernels` against its pure-Python reference from
``tests/oracles/kernels.py`` (asserting element-for-element agreement on the
way), and writes a machine-readable ``BENCH_kernels.json`` so the perf
trajectory accumulates data points across commits.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke    # CI-sized

The full sweep covers n in {100, 500, 1000, 2000} x m in {2, 3, 5}; the
smoke sweep trims that to one small grid so CI can assert the kernels still
agree with (and beat) the references without burning minutes.  Either sweep
exits non-zero when a kernel in ``FLOORS`` falls below its speedup floor on
any grid point.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from _harness import add_output_argument, best_of, environment, write_report
from repro.moo import kernels
from tests.oracles.kernels import (
    reference_archive_prune,
    reference_crowding_distance,
    reference_fast_non_dominated_sort,
    reference_non_dominated_front_indices,
)

FULL_SWEEP = {"n": (100, 500, 1000, 2000), "m": (2, 3, 5)}
SMOKE_SWEEP = {"n": (100, 300), "m": (2, 3)}

#: Minimum speedup over the reference, per kernel, on every (n, m) of a sweep.
FLOORS = {"nondominated_sort": 10.0, "archive_prune": 1.0}

#: Reference timings above this n are extrapolation-expensive; cap the
#: repeats so the full sweep stays in minutes, not hours.
_REPEATS = {"kernel": 5, "reference": 1}


def _population(n: int, m: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded mixed-feasibility population with some duplicated rows."""
    rng = np.random.default_rng(seed)
    F = rng.normal(size=(n, m))
    CV = np.where(rng.random(n) < 0.7, 0.0, rng.uniform(0.1, 2.0, size=n))
    X = rng.uniform(size=(n, max(m, 2)))
    duplicates = rng.integers(0, n, size=n // 10)
    F[duplicates] = F[rng.integers(0, n, size=duplicates.size)]
    return F, CV, X



def _bench_case(n: int, m: int) -> list[dict]:
    F, CV, X = _population(n, m, seed=n * 31 + m)
    records = []

    t_kernel, fronts_kernel = best_of(
        lambda: kernels.nondominated_sort(F, CV), _REPEATS["kernel"]
    )
    t_reference, fronts_reference = best_of(
        lambda: reference_fast_non_dominated_sort(F, CV), _REPEATS["reference"]
    )
    assert fronts_kernel == fronts_reference, "sort kernel/reference disagreement"
    records.append(_record("nondominated_sort", n, m, t_kernel, t_reference))

    t_kernel, mask = best_of(lambda: kernels.non_dominated_mask(F), _REPEATS["kernel"])
    t_reference, indices = best_of(
        lambda: reference_non_dominated_front_indices(F), _REPEATS["reference"]
    )
    assert np.flatnonzero(mask).tolist() == indices, "front-mask disagreement"
    records.append(_record("non_dominated_mask", n, m, t_kernel, t_reference))

    t_kernel, crowd_kernel = best_of(
        lambda: kernels.crowding_distances(F), _REPEATS["kernel"]
    )
    t_reference, crowd_reference = best_of(
        lambda: reference_crowding_distance(F), _REPEATS["reference"]
    )
    assert np.array_equal(crowd_kernel, crowd_reference), "crowding disagreement"
    records.append(_record("crowding_distances", n, m, t_kernel, t_reference))

    capacity = max(16, n // 4)
    t_kernel, pruned_kernel = best_of(
        lambda: kernels.archive_prune(F, CV, X, 0, capacity=capacity),
        _REPEATS["kernel"],
    )
    t_reference, pruned_reference = best_of(
        lambda: reference_archive_prune(F, CV, X, 0, capacity=capacity),
        _REPEATS["reference"],
    )
    assert pruned_kernel == pruned_reference, "archive-prune disagreement"
    records.append(_record("archive_prune", n, m, t_kernel, t_reference))
    return records


def _record(kernel: str, n: int, m: int, t_kernel: float, t_reference: float) -> dict:
    speedup = t_reference / t_kernel if t_kernel > 0 else float("inf")
    return {
        "kernel": kernel,
        "n": n,
        "m": m,
        "t_kernel_s": round(t_kernel, 6),
        "t_reference_s": round(t_reference, 6),
        "speedup": round(speedup, 2),
    }


def run_sweep(sweep: dict) -> list[dict]:
    """Benchmark every (kernel, n, m) combination of the sweep."""
    records = []
    for n in sweep["n"]:
        for m in sweep["m"]:
            case = _bench_case(n, m)
            records.extend(case)
            slowest = max(case, key=lambda r: r["t_reference_s"])
            print(
                "n=%4d m=%d  %-18s kernel %8.2f ms  reference %9.2f ms  (%.0fx)"
                % (
                    n,
                    m,
                    slowest["kernel"],
                    slowest["t_kernel_s"] * 1e3,
                    slowest["t_reference_s"] * 1e3,
                    slowest["speedup"],
                )
            )
    return records


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced sweep for CI (agreement + speedup sanity, seconds not minutes)",
    )
    add_output_argument(parser, "BENCH_kernels.json")
    args = parser.parse_args(argv)
    sweep = SMOKE_SWEEP if args.smoke else FULL_SWEEP
    records = run_sweep(sweep)
    payload = {
        "benchmark": "kernels-vs-reference",
        "mode": "smoke" if args.smoke else "full",
        **environment(),
        "results": records,
    }
    write_report(args.output, payload)
    status = 0
    for kernel, floor in FLOORS.items():
        slowest = min(r["speedup"] for r in records if r["kernel"] == kernel)
        if slowest < floor:
            print(
                "FAIL: %s speedup %.1fx below the %.1fx floor" % (kernel, slowest, floor),
                file=sys.stderr,
            )
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
