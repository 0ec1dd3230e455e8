"""Benchmark the population kinetics paths against the naive references.

Times the columnwise population right-hand side
(:meth:`~tests.oracles.ode.network.KineticNetwork.build_rhs_batch`) and the
flux matrix of the Calvin-cycle network against the per-member scalar loops
preserved in ``tests/oracles/kinetics.py`` (asserting element-for-element
agreement on the way).  Writes a machine-readable ``BENCH_kinetics.json``
so the perf trajectory accumulates data points across commits.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_kinetics.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_kinetics.py --smoke    # CI-sized

The headline operation is the population RHS: one batched call replaces P
scalar closure evaluations (each walking every reaction with per-member
dictionaries), which is what a parameter-ensemble ODE sweep evaluates at
every integrator step.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from _harness import add_output_argument, best_of, environment, write_report
from tests.oracles.kinetics import (
    reference_fluxes,
    reference_rhs_population,
)
from tests.oracles.ode.calvin import build_calvin_network

FULL_SWEEP = {"P": (64, 256, 1024)}
SMOKE_SWEEP = {"P": (16, 64)}

_REPEATS = {"fast": 5, "reference": 1}



def _record(operation: str, members: int, t_fast: float, t_reference: float) -> dict:
    speedup = t_reference / t_fast if t_fast > 0 else float("inf")
    return {
        "operation": operation,
        "P": members,
        "t_fast_s": round(t_fast, 6),
        "t_reference_s": round(t_reference, 6),
        "speedup": round(speedup, 2),
    }


def _population(network, members: int, seed: int):
    """Seeded (scales, states) population around the network's initial state."""
    rng = np.random.default_rng(seed)
    enzymes = network.enzymes()
    scales = [
        {name: float(value) for name, value in zip(enzymes, row)}
        for row in rng.uniform(0.5, 1.5, size=(members, len(enzymes)))
    ]
    base = network.initial_state()
    Y = base[None, :] * rng.uniform(0.5, 1.5, size=(members, base.size))
    Y[0, ::3] = -0.1  # exercise the concentration floor
    return scales, Y


def _bench_case(network, members: int) -> list[dict]:
    scales, Y = _population(network, members, seed=members)
    records = []

    t_fast, batched = best_of(
        lambda: network.build_rhs_batch(scales)(0.0, Y), _REPEATS["fast"]
    )
    t_reference, looped = best_of(
        lambda: reference_rhs_population(network, scales, 0.0, Y),
        _REPEATS["reference"],
    )
    assert np.array_equal(batched, looped), "RHS population disagreement"
    records.append(_record("rhs_population", members, t_fast, t_reference))

    floored = {
        identifier: np.where(column > 0.0, column, 0.0)
        for identifier, column in zip(network.dynamic_metabolite_ids, Y.T)
    }
    for metabolite in network.metabolites:
        if metabolite.fixed:
            floored[metabolite.identifier] = np.full(
                members, metabolite.initial_concentration
            )
    t_fast, matrix = best_of(
        lambda: network.flux_matrix(floored, scales), _REPEATS["fast"]
    )

    def _loop_fluxes():
        return [
            reference_fluxes(
                network,
                {key: float(column[p]) for key, column in floored.items()},
                scales[p],
            )
            for p in range(members)
        ]

    t_reference, looped = best_of(_loop_fluxes, _REPEATS["reference"])
    assert all(
        matrix[p].tolist() == list(member.values())
        for p, member in enumerate(looped)
    ), "flux matrix disagreement"
    records.append(_record("flux_matrix", members, t_fast, t_reference))
    return records


def run_sweep(sweep: dict) -> list[dict]:
    """Benchmark every population size of the sweep on the Calvin network."""
    network = build_calvin_network()
    records = []
    for members in sweep["P"]:
        case = _bench_case(network, members)
        records.extend(case)
        for record in case:
            print(
                "%-16s P=%5d  fast %8.2f ms  reference %9.2f ms  (%.0fx)"
                % (
                    record["operation"],
                    record["P"],
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
    add_output_argument(parser, "BENCH_kinetics.json")
    args = parser.parse_args(argv)
    sweep = SMOKE_SWEEP if args.smoke else FULL_SWEEP
    records = run_sweep(sweep)
    payload = {
        "benchmark": "kinetics-vs-reference",
        "mode": "smoke" if args.smoke else "full",
        "network": "calvin-cycle",
        **environment(),
        "results": records,
    }
    write_report(args.output, payload)
    headline = [
        r["speedup"]
        for r in records
        if r["operation"] == "rhs_population" and r["P"] == max(sweep["P"])
    ]
    # The full sweep must clear 10x; the smoke grid is too small to
    # amortize the batch set-up, so CI only sanity-checks the direction.
    floor = 3.0 if args.smoke else 10.0
    if min(headline) < floor:
        print(
            "FAIL: rhs_population speedup %.1fx below the %.0fx floor"
            % (min(headline), floor),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
