"""Benchmark the vectorized FBA stack against the naive references.

Times the batched violation screens and the shared-assembly FVA of
:mod:`repro.fba` against the per-call reference implementations preserved in ``tests/oracles/fba.py`` (asserting
element-for-element agreement on the way), on the paper's 608-reaction
Geobacter model.  Writes a machine-readable ``BENCH_fba.json`` so the perf
trajectory accumulates data points across commits.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_fba.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_fba.py --smoke    # CI-sized

The headline operation is the bound-violation screen, whose batched form is
fully columnar (clip-sums commute bitwise with the per-row reference).  The
steady-state screen computes the rows of ``S`` with at most two nonzeros as
gathered products and keeps a per-row matrix-vector product only for the
aligned 4-row blocks holding the longer rows, bitwise identical to the
reference (a stacked GEMM accumulates differently); see
:mod:`repro.fba.batch`.  FVA rides along with a more modest speedup, since
the LP solver itself dominates its cost; only the bound screen has a
speedup floor.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from _harness import add_output_argument, best_of, environment, write_report
from repro.fba import (
    bound_violations,
    flux_variability_analysis,
    steady_state_violations,
)
from tests.oracles.fba import (
    reference_bound_violation,
    reference_constraint_violation,
    reference_flux_variability_analysis,
)
from repro.geobacter.model_builder import (
    BIOMASS_ID,
    build_geobacter_model,
)

FULL_SWEEP = {"screen_n": (64, 256, 1024), "lp_targets": 12}
SMOKE_SWEEP = {"screen_n": (32, 128), "lp_targets": 4}

_REPEATS = {"fast": 5, "reference": 1}



def _record(operation: str, n: int, t_fast: float, t_reference: float) -> dict:
    speedup = t_reference / t_fast if t_fast > 0 else float("inf")
    return {
        "operation": operation,
        "n": n,
        "t_fast_s": round(t_fast, 6),
        "t_reference_s": round(t_reference, 6),
        "speedup": round(speedup, 2),
    }


def _flux_population(model, n: int, seed: int) -> np.ndarray:
    lower, upper = model.bounds()
    rng = np.random.default_rng(seed)
    return rng.uniform(np.maximum(lower, -200.0), np.minimum(upper, 200.0), size=(n, model.n_reactions))


def _bench_screens(model, sweep: dict) -> list[dict]:
    records = []
    for n in sweep["screen_n"]:
        X = _flux_population(model, n, seed=n)
        t_fast, batched = best_of(
            lambda: steady_state_violations(model, X, norm="l1"), _REPEATS["fast"]
        )
        t_reference, looped = best_of(
            lambda: [reference_constraint_violation(model, row, "l1") for row in X],
            _REPEATS["reference"],
        )
        assert batched.tolist() == looped, "violation screen disagreement"
        records.append(_record("violation_screen", n, t_fast, t_reference))

        t_fast, batched = best_of(lambda: bound_violations(model, X), _REPEATS["fast"])
        t_reference, looped = best_of(
            lambda: [reference_bound_violation(model, row) for row in X],
            _REPEATS["reference"],
        )
        assert batched.tolist() == looped, "bound screen disagreement"
        records.append(_record("bound_screen", n, t_fast, t_reference))
    return records


def _bench_fva(model, sweep: dict) -> list[dict]:
    targets = model.reaction_ids[: sweep["lp_targets"]]
    t_fast, fast_fva = best_of(
        lambda: flux_variability_analysis(model, reactions=targets, fraction_of_optimum=0.5),
        1,
    )
    t_reference, slow_fva = best_of(
        lambda: reference_flux_variability_analysis(
            model, reactions=targets, fraction_of_optimum=0.5
        ),
        1,
    )
    assert fast_fva == slow_fva, "FVA disagreement"
    return [_record("fva", len(targets), t_fast, t_reference)]


def run_sweep(sweep: dict) -> list[dict]:
    """Benchmark every operation of the sweep on the Geobacter model."""
    model = build_geobacter_model()
    model.set_objective(BIOMASS_ID)
    records = _bench_screens(model, sweep) + _bench_fva(model, sweep)
    for record in records:
        print(
            "%-18s n=%5d  fast %8.2f ms  reference %9.2f ms  (%.0fx)"
            % (
                record["operation"],
                record["n"],
                record["t_fast_s"] * 1e3,
                record["t_reference_s"] * 1e3,
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
        help="reduced sweep for CI (agreement + speedup sanity, seconds not minutes)",
    )
    add_output_argument(parser, "BENCH_fba.json")
    args = parser.parse_args(argv)
    sweep = SMOKE_SWEEP if args.smoke else FULL_SWEEP
    records = run_sweep(sweep)
    payload = {
        "benchmark": "fba-vs-reference",
        "mode": "smoke" if args.smoke else "full",
        "model": "geobacter-608",
        **environment(),
        "results": records,
    }
    write_report(args.output, payload)
    headline = [
        r["speedup"]
        for r in records
        if r["operation"] == "bound_screen" and r["n"] == max(sweep["screen_n"])
    ]
    # The full sweep must clear 10x; the smoke grid is too small to
    # amortize the batch set-up, so CI only sanity-checks the direction.
    floor = 3.0 if args.smoke else 10.0
    if min(headline) < floor:
        print(
            "FAIL: bound_screen speedup %.1fx below the %.0fx floor"
            % (min(headline), floor),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
