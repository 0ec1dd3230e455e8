"""Service round trip: start `repro serve`, submit, stream, fetch the front.

The programmatic twin of the docs/serving.md session — and the CI service
smoke test:

1. spawn a real ``python -m repro serve`` server on an OS-assigned port,
2. probe ``/healthz``,
3. submit a zdt1/NSGA-II job with the stdlib client,
4. follow the SSE event stream (at least one ``generation`` event must
   arrive),
5. fetch the finished front and check it against a direct ``solve()`` of
   the same seed — the service must add durability, never different
   numbers.

Run with::

    PYTHONPATH=src python examples/serve_roundtrip.py
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.problems import build_problem
from repro.serve import ServeClient
from repro.solve import MaxGenerations, solve

SPEC = {"problem": "zdt1", "algorithm": "nsga2", "seed": 7,
        "generations": 8, "population": 16, "telemetry": False}


def start_server(data_dir: str) -> "tuple[subprocess.Popen, int]":
    """Spawn ``repro serve --port 0`` and parse the announced port."""
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "1", "--data-dir", data_dir],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    line = process.stdout.readline()
    match = re.search(r"http://[^:]+:(\d+)", line)
    if not match:
        process.kill()
        raise RuntimeError("server did not announce a port: %r" % line)
    return process, int(match.group(1))


def main() -> None:
    with tempfile.TemporaryDirectory() as base:
        process, port = start_server(base)
        try:
            client = ServeClient(port=port, timeout=120)

            # 2. Liveness first: the smoke test fails fast on a dead server.
            health = client.healthz()
            print("healthz: %s" % health)
            assert health["status"] == "ok"

            # 3. Submit: the spec is validated server-side at submit time.
            job = client.submit(**SPEC)
            print("submitted %s (%s)" % (job["id"], job["state"]))

            # 4. Stream: durable replay + live events until the job ends.
            generations = 0
            for event in client.stream(job["id"]):
                print("event: %-10s %s" % (event["type"],
                                           event.get("generation", "")))
                if event["type"] == "generation":
                    generations += 1
            assert generations >= 1, "no generation event arrived"

            # 5. The served front equals a direct solve of the same seed.
            served = client.result(job["id"])
            result = solve(build_problem(SPEC["problem"]),
                           algorithm=SPEC["algorithm"], seed=SPEC["seed"],
                           termination=MaxGenerations(SPEC["generations"]),
                           population_size=SPEC["population"])
            direct = result.front_objectives()
            assert np.array_equal(np.asarray(served["objectives"]), direct)
            print("front: %d points, identical to direct solve()"
                  % len(served["objectives"]))
        finally:
            process.terminate()
            process.wait(timeout=10)
    print("\nround trip OK")


if __name__ == "__main__":
    main()
