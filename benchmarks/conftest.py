"""Shared configuration of the benchmark harness.

Every benchmark regenerates one table or figure of the paper at a
laptop-friendly budget, times it with pytest-benchmark (single round — each
run is a full optimization) and prints a paper-versus-measured comparison
block so the qualitative claims can be checked at a glance.

Run with::

    pytest benchmarks/ --benchmark-only

Budgets can be raised through the environment variables ``REPRO_BENCH_POP``
and ``REPRO_BENCH_GEN`` to approach the paper's original settings.
"""

import os
import sys
from pathlib import Path

import pytest

# The runtime-scaling benchmark takes its ODE problem from tests/oracles/.
sys.path.insert(1, str(Path(__file__).resolve().parents[1]))

#: Population per island / algorithm used by the benchmark runs.
BENCH_POPULATION = int(os.environ.get("REPRO_BENCH_POP", "24"))
#: Generations used by the benchmark runs.
BENCH_GENERATIONS = int(os.environ.get("REPRO_BENCH_GEN", "30"))
#: Seed shared by all benchmarks (the paper's publication year).
BENCH_SEED = 2011


@pytest.fixture(scope="session")
def bench_budget():
    """(population, generations, seed) tuple shared by every benchmark."""
    return BENCH_POPULATION, BENCH_GENERATIONS, BENCH_SEED


@pytest.fixture(autouse=True)
def _save_benchmark_report(request, capfd):
    """Persist each benchmark's printed paper-vs-measured block.

    pytest captures stdout by default, which would hide the per-experiment
    tables this harness exists to produce.  This fixture collects whatever the
    benchmark printed and writes it to ``benchmarks/reports/<test>.txt`` (plus
    a consolidated ``benchmarks/reports/summary.txt``), so the measured rows
    survive every run regardless of capture settings; run with ``-s`` to also
    see them live.
    """
    yield
    out, _ = capfd.readouterr()
    if not out.strip():
        return
    reports_dir = os.path.join(os.path.dirname(__file__), "reports")
    os.makedirs(reports_dir, exist_ok=True)
    name = request.node.name.replace("/", "_")
    with open(os.path.join(reports_dir, "%s.txt" % name), "w") as handle:
        handle.write(out)
    with open(os.path.join(reports_dir, "summary.txt"), "a") as handle:
        handle.write(out)
        handle.write("\n")


def run_once(benchmark, function, *args, **kwargs):
    """Time ``function`` with a single benchmark round and return its result."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
