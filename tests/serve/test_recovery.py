"""Restart-recovery tests: SIGKILL the server mid-job, restart, resume.

The hardest guarantee of the service: a job interrupted by a hard server
kill is re-queued on restart, resumes from its latest checkpoint, and
finishes with a front **bitwise identical** to an uninterrupted run of the
same spec — while the event stream stays monotonic (no generation is
reported twice).
"""

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.artifacts import record_solve_run
from repro.problems import build_problem
from repro.serve import ServeClient, JobStore
from repro.solve import MaxGenerations, solve

SRC = Path(__file__).resolve().parents[2] / "src"


def _start_server(data_dir):
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "1",
         "--data-dir", str(data_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    line = process.stdout.readline()
    match = re.search(r"http://[^:]+:(\d+)", line)
    if not match:
        stderr = process.stderr.read() if process.poll() is not None else ""
        _kill(process)
        pytest.fail("server did not announce a port: %r (stderr: %s)" % (line, stderr))
    return process, int(match.group(1))


def _kill(process):
    """SIGKILL the server if it still runs, reap it and close its pipes.

    The pipes are closed unread: orphaned runners may still hold their
    write ends, so reading them to the end could block.
    """
    if process.poll() is None:
        os.kill(process.pid, signal.SIGKILL)
        process.wait()
    process.stdout.close()
    process.stderr.close()


def _kill_orphan_runners(data_dir):
    """SIGKILL leftover runner subprocesses working under ``data_dir``.

    Killing the server with SIGKILL orphans its runner children (a real
    crash does too); the restarted coordinator assumes interrupted jobs are
    dead, so the test must finish the kill the way an OS reboot would.
    """
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            cmdline = Path("/proc", pid, "cmdline").read_bytes().split(b"\0")
        except OSError:
            continue
        joined = [part.decode("utf-8", "replace") for part in cmdline]
        if "repro.serve.runner" in joined and any(str(data_dir) in part for part in joined):
            try:
                os.kill(int(pid), signal.SIGKILL)
            except OSError:
                pass
    time.sleep(0.2)


class TestKillAndResume:
    def test_killed_server_resumes_bitwise_identically(self, tmp_path):
        data_dir = tmp_path / "serve-data"
        spec = {"problem": "zdt1?delay=0.005", "algorithm": "nsga2", "seed": 11,
                "generations": 12, "population": 12, "checkpoint_interval": 3,
                "telemetry": False}

        process, port = _start_server(data_dir)
        try:
            client = ServeClient(port=port, timeout=30)
            job = client.submit(**spec)
            checkpoints = data_dir / "jobs" / job["id"] / "checkpoints"
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if checkpoints.is_dir() and list(checkpoints.glob("checkpoint-*.pkl")):
                    record = client.job(job["id"])
                    if record["state"] in ("running", "checkpointed"):
                        break
                time.sleep(0.02)
            else:
                pytest.fail("no checkpoint appeared before the kill")
            assert not record["state"] == "done", "job finished before the kill"
        finally:
            _kill(process)
        _kill_orphan_runners(data_dir)

        # The on-disk record still says the job is mid-flight.
        stored = JobStore(data_dir).load(job["id"])
        assert stored.is_active

        process, port = _start_server(data_dir)
        try:
            client = ServeClient(port=port, timeout=60)
            finished = client.wait(job["id"], timeout=180)
            assert finished["state"] == "done"
            assert finished["restarts"] == 1

            # Event stream stayed monotonic: every generation exactly once.
            generations = [
                event["generation"]
                for event in client.stream(job["id"])
                if event["type"] == "generation"
            ]
            assert generations == list(range(1, spec["generations"] + 1))
        finally:
            _kill(process)

        served = (data_dir / "jobs" / job["id"] / "front.json").read_text(
            encoding="utf-8"
        )
        problem = build_problem(spec["problem"])
        result = solve(problem, algorithm=spec["algorithm"], seed=spec["seed"],
                       termination=MaxGenerations(spec["generations"]),
                       population_size=spec["population"])
        reference = tmp_path / "reference"
        reference.mkdir()
        record_solve_run(reference, problem, result, parameters={})
        assert served == (reference / "front.json").read_text(encoding="utf-8")

    def test_queued_jobs_survive_a_kill(self, tmp_path):
        data_dir = tmp_path / "serve-data"
        process, port = _start_server(data_dir)
        try:
            client = ServeClient(port=port, timeout=30)
            job = client.submit(problem="zdt1", generations=3, population=12,
                                telemetry=False)
            quick = dict(job)
        finally:
            _kill(process)
        _kill_orphan_runners(data_dir)

        process, port = _start_server(data_dir)
        try:
            client = ServeClient(port=port, timeout=60)
            finished = client.wait(quick["id"], timeout=120)
            assert finished["state"] == "done"
        finally:
            _kill(process)
