"""Warm-worker lifecycle: which process runs which job, and what it leaves behind.

A telemetry job's ``trace.jsonl`` records the pid of the process that ran
it, which is how these tests see a worker being reused or replaced.  The
guarantees under test:

* a job that returned 0 leaves its worker idle, and the next job runs in it;
* a job that fails or is cancelled ends its worker, and its successor runs
  in a freshly forked one;
* a job run by a reused worker writes the same artifacts as in a fresh one;
* no worker outlives the fork server's stdin, nor the service.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.serve import JobStore, ServeClient, ServeThread
from repro.solve import SolveRequest
from tests.serve.test_service import _children_of, _is_running, _running_runner

SPEC = {"problem": "zdt1?n_var=6", "algorithm": "nsga2", "seed": 7,
        "generations": 5, "population": 12, "checkpoint_interval": 2,
        "telemetry": True}
SLOW = {"problem": "zdt1?delay=0.02", "generations": 500, "population": 12,
        "telemetry": False}


def _pid(job_dir):
    """The one pid every span of a job's ``trace.jsonl`` was emitted from."""
    lines = Path(job_dir, "trace.jsonl").read_text(encoding="utf-8").splitlines()
    (pid,) = {json.loads(line)["pid"] for line in lines}
    return pid


def _wait_gone(pid, timeout=10):
    deadline = time.monotonic() + timeout
    while _is_running(pid):
        assert time.monotonic() < deadline, "process %d survived" % pid
        time.sleep(0.02)


@pytest.fixture()
def service(tmp_path):
    base = tmp_path / "data"
    with ServeThread(str(base), workers=1) as app:
        client = ServeClient(port=app.port, timeout=120)
        client.app = app
        client.jobs_dir = base / "jobs"
        yield client


def _run(client, **spec):
    """Submit one job, wait for it; its final record."""
    return client.wait(client.submit(**spec)["id"], timeout=120)


class TestReuse:
    def test_successive_jobs_run_in_one_worker(self, service):
        first = _run(service, **SPEC)
        second = _run(service, **dict(SPEC, seed=8))
        assert first["state"] == second["state"] == "done"
        assert _pid(service.jobs_dir / first["id"]) == _pid(service.jobs_dir / second["id"])

    def test_failed_job_is_succeeded_by_a_fresh_worker(self, service):
        before = _run(service, **SPEC)
        failed = _run(service, problem="zdt1?fail_after=30", generations=50,
                      population=12, telemetry=False)
        after = _run(service, **SPEC)
        assert [before["state"], failed["state"], after["state"]] == ["done", "failed", "done"]
        assert "deliberate failure injected" in failed["error"]
        assert _pid(service.jobs_dir / before["id"]) != _pid(service.jobs_dir / after["id"])

    def test_cancelled_job_is_succeeded_by_a_fresh_worker(self, service):
        before = _run(service, **SPEC)
        slow = service.submit(**SLOW)
        worker = _running_runner(service, service.app, slow["id"])
        assert worker == _pid(service.jobs_dir / before["id"])
        service.cancel(slow["id"])
        assert service.wait(slow["id"], timeout=30)["state"] == "cancelled"
        _wait_gone(worker)
        after = _run(service, **SPEC)
        assert after["state"] == "done"
        assert _pid(service.jobs_dir / after["id"]) != worker

    def test_reused_worker_writes_the_artifacts_of_a_fresh_one(self, service):
        # The first job runs in a fresh worker; the third repeats its spec
        # in the same worker after a different problem ran there.
        fresh = _run(service, **SPEC)
        other = _run(service, problem="photosynthesis", generations=3, population=8,
                     telemetry=True)
        reused = _run(service, **SPEC)
        dirs = [service.jobs_dir / record["id"] for record in (fresh, other, reused)]
        assert len({_pid(path) for path in dirs}) == 1
        fresh_dir, _, reused_dir = dirs
        for name in ("front.json", "front.csv"):
            assert (fresh_dir / name).read_bytes() == (reused_dir / name).read_bytes(), name

        def ledger(job_dir):
            # Each phase's wall_clock is a timing, as elapsed is below.
            payload = json.loads((job_dir / "ledger.json").read_text(encoding="utf-8"))
            for phase in payload["phases"].values():
                phase.pop("wall_clock")
            return payload

        assert ledger(fresh_dir) == ledger(reused_dir)

        def events(job_dir):
            rows = []
            for line in (job_dir / "events.jsonl").read_text(encoding="utf-8").splitlines():
                event = json.loads(line)
                event.pop("elapsed", None)
                if "path" in event:
                    event["path"] = os.path.relpath(event["path"], job_dir)
                rows.append(event)
            return rows

        def timeseries(job_dir):
            lines = (job_dir / "timeseries.csv").read_text(encoding="utf-8").splitlines()
            column = lines[0].split(",").index("elapsed")
            return [line.split(",")[:column] + line.split(",")[column + 1:] for line in lines]

        assert events(fresh_dir) == events(reused_dir)
        assert timeseries(fresh_dir) == timeseries(reused_dir)


class TestShutdown:
    def test_stop_leaves_no_worker_behind(self, tmp_path):
        with ServeThread(str(tmp_path / "data"), workers=2) as app:
            client = ServeClient(port=app.port, timeout=120)
            quick = dict(SPEC, problem="zdt1?delay=0.01", telemetry=False)
            jobs = [client.submit(**quick), client.submit(**dict(quick, seed=8))]
            for job in jobs:
                assert client.wait(job["id"], timeout=120)["state"] == "done"
            slow = client.submit(**SLOW)
            busy = _running_runner(client, app, slow["id"])
            server = app._app.coordinator.fork_server.process.pid
            workers = _children_of(server)
            # The two concurrent jobs forked two workers: one busy, one idle.
            assert len(workers) == 2 and busy in workers
        assert not _is_running(server)
        for pid in workers:
            assert not _is_running(pid), "worker %d outlived the service" % pid


class _ForkServer:
    """A bare ``python -m repro.serve.runner`` driven over its stdin/stdout."""

    def __init__(self, data_dir):
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.runner", str(data_dir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )

    def send(self, command, job_id):
        self.process.stdin.write("%s %s\n" % (command, job_id))
        self.process.stdin.flush()

    def run(self, job_id):
        """``run`` one job; the code of its ``exited`` line."""
        self.send("run", job_id)
        word, exited_id, code = self.process.stdout.readline().split()
        assert (word, exited_id) == ("exited", job_id)
        return int(code)

    def workers(self):
        return _children_of(self.process.pid)

    def close(self):
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdin.close()
        self.process.stdout.close()


@pytest.fixture()
def fork_server(tmp_path):
    store = JobStore(tmp_path / "data")
    server = _ForkServer(store.data_dir)
    server.store = store
    yield server
    server.close()


def _job(store, **fields):
    return store.create(SolveRequest(**dict(SPEC, **fields))).id


class TestForkServerProtocol:
    def test_kill_of_a_finished_job_leaves_the_idle_worker_alive(self, fork_server):
        store = fork_server.store
        first, second = _job(store), _job(store, seed=8)
        assert fork_server.run(first) == 0
        (worker,) = fork_server.workers()
        fork_server.send("kill", first)
        assert fork_server.run(second) == 0
        assert fork_server.workers() == [worker]
        assert _pid(store.job_dir(first)) == _pid(store.job_dir(second)) == worker

    def test_raising_job_ends_its_worker_with_code_1(self, fork_server):
        store = fork_server.store
        ok, crash = _job(store), _job(store, problem="zdt1?fail_after=5", telemetry=False)
        assert fork_server.run(ok) == 0
        (worker,) = fork_server.workers()
        assert fork_server.run(crash) == 1
        assert "deliberate failure injected" in (store.job_dir(crash) / "runner.stderr").read_text()
        _wait_gone(worker)
        assert fork_server.workers() == []

    def test_eof_on_stdin_ends_every_worker(self, fork_server):
        assert fork_server.run(_job(fork_server.store)) == 0
        (worker,) = fork_server.workers()
        fork_server.process.stdin.close()
        assert fork_server.process.wait(timeout=30) == 0
        _wait_gone(worker)

    def test_idle_worker_exits_when_the_fork_server_is_killed(self, fork_server):
        assert fork_server.run(_job(fork_server.store)) == 0
        (worker,) = fork_server.workers()
        os.kill(fork_server.process.pid, signal.SIGKILL)
        fork_server.process.wait()
        _wait_gone(worker)


def test_run_job_leaves_no_process_state_behind(tmp_path):
    """Tracer, warnings filters, numpy error state, files, cwd: as before the job.

    Runs in a fresh interpreter, after the fork server's preload, through a
    telemetry photosynthesis job, a failing job and a PMO2 job with the
    disk cache.
    """
    script = (
        "import os, signal, sys, threading, warnings\n"
        "import numpy as np\n"
        "from repro.obs.trace import get_tracer\n"
        "from repro.serve.runner import _preload, run_job\n"
        "from repro.serve.store import JobStore\n"
        "from repro.solve import SolveRequest\n"
        "_preload()\n"
        "store = JobStore(%r)\n"
        "def state():\n"
        "    files = {}\n"
        "    for fd in os.listdir('/proc/self/fd'):\n"
        "        try:\n"
        "            files[fd] = os.readlink('/proc/self/fd/' + fd)\n"
        "        except OSError:\n"
        "            pass  # the descriptor listdir itself used\n"
        "    return (files, os.getcwd(), list(warnings.filters), np.geterr(),\n"
        "            get_tracer(), threading.active_count(), dict(os.environ),\n"
        "            signal.getsignal(signal.SIGTERM), sys.stdout, sys.stderr)\n"
        "specs = [dict(problem='photosynthesis', generations=3, population=8, telemetry=True),\n"
        "         dict(problem='zdt1?fail_after=5', generations=3, population=8,"
        " telemetry=True),\n"
        "         dict(problem='zdt1', algorithm='pmo2', generations=3, population=8,"
        " telemetry=True)]\n"
        "changed = []\n"
        "for spec in specs:\n"
        "    before = state()\n"
        "    record = store.create(SolveRequest(**spec))\n"
        "    try:\n"
        "        run_job(store.job_dir(record.id), cache_dir=%r)\n"
        "    except Exception:\n"
        "        pass\n"
        "    changed += [i for i, (a, b) in enumerate(zip(before, state())) if a != b]\n"
        "print(changed)\n"
    ) % (str(tmp_path / "data"), str(tmp_path / "cache"))
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"
