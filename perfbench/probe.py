"""Time one workload's set-up in a fresh interpreter.

``python3 perfbench/probe.py <workload> <workdir>`` imports the library from
``./src``, builds the workload's problem (and, for ``serve-cache``, starts the
service and waits for ``/healthz``), prints the seconds that took and tears
the set-up down again.  ``run.py`` runs it several times per run and reports
the median as ``setup_s``.
"""

import time

STARTED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path("src").resolve()))

import workloads  # noqa: E402


def main(name: str, workdir: str) -> None:
    """Set up, print the elapsed seconds, tear down."""
    workload = workloads.make(name)
    try:
        workload.setup(Path(workdir))
        elapsed = time.perf_counter() - STARTED
    finally:
        workload.close()
    print(repr(elapsed))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
