"""Shared plumbing of the ``bench_*.py`` performance scripts.

Each script times a fast path against its reference or baseline and writes
one ``BENCH_*.json`` report.  This module holds what they all share: the
best-of-N timing loop, the environment stamp every report carries, the
``--output`` option and the report writer.  Importing it also puts the
repository's ``src/`` and, for the reference implementations in
``tests/oracles/``, the repository root on ``sys.path``, so the scripts run
from a checkout::

    python benchmarks/bench_kernels.py --smoke
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]

sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(1, str(REPO_ROOT))


def best_of(function: Callable[[], Any], repeats: int) -> tuple[float, Any]:
    """Minimum wall-clock of ``repeats`` calls, plus the last return value."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = function()
        best = min(best, time.perf_counter() - start)
    return best, value


def environment() -> dict:
    """The interpreter, numpy and machine a report was measured on."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def add_output_argument(parser: argparse.ArgumentParser, name: str) -> None:
    """Add ``--output``, defaulting to the report ``name`` at the repo root."""
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / name),
        help="where to write the machine-readable results (default: repo root)",
    )


def write_report(path: str | Path, payload: dict) -> Path:
    """Write ``payload`` as indented JSON to ``path`` and say where."""
    output = Path(path)
    output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print("wrote %s" % output)
    return output
