"""End-to-end service tests: real workers, real forked runners.

The contracts under test here are the tentpole guarantees:

* submit → SSE stream → result round trip, with the served front
  **bitwise identical** to a direct in-process ``solve()`` of the same
  seed (the service adds durability, never different numbers);
* cancel mid-run terminates the worker subprocess and lands in
  ``cancelled``;
* a crashing evaluation fails only its own job, with the error detail
  recorded on the record.
"""

import json
import os
import signal
import time
from pathlib import Path

import pytest

from repro.core.artifacts import record_solve_run
from repro.problems import build_problem
from repro.serve import ServeClient, ServeThread
from repro.solve import MaxGenerations, solve

SPEC = {"problem": "zdt1?n_var=6", "algorithm": "nsga2", "seed": 7,
        "generations": 5, "population": 12, "checkpoint_interval": 2,
        "telemetry": False}


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    base = tmp_path_factory.mktemp("serve")
    with ServeThread(str(base), workers=1) as app:
        client = ServeClient(port=app.port, timeout=120)
        client.data_dir = base
        yield client


class TestRoundTrip:
    def test_submit_stream_result(self, service):
        job = service.submit(**SPEC)
        events = list(service.stream(job["id"]))
        kinds = [event["type"] for event in events]
        assert kinds.count("generation") == SPEC["generations"]
        assert "checkpoint" in kinds
        assert events[-1] == {
            "type": "state", "state": "done", "generation": 5,
            "evaluations": service.job(job["id"])["evaluations"], "error": None,
        }
        generations = [e["generation"] for e in events if e["type"] == "generation"]
        assert generations == [1, 2, 3, 4, 5]

        record = service.job(job["id"])
        assert record["state"] == "done"
        assert record["generation"] == 5
        assert record["evaluations"] > 0

        served = service.result(job["id"])
        assert served["n_points"] == len(served["objectives"])

    def test_served_front_matches_direct_solve_bitwise(self, service, tmp_path):
        job = service.submit(**SPEC)
        service.wait(job["id"])
        served_raw = (service.data_dir / "jobs" / job["id"] / "front.json").read_text(
            encoding="utf-8"
        )
        problem = build_problem(SPEC["problem"])
        result = solve(problem, algorithm=SPEC["algorithm"], seed=SPEC["seed"],
                       termination=MaxGenerations(SPEC["generations"]),
                       population_size=SPEC["population"])
        record_solve_run(tmp_path, problem, result, parameters={})
        assert served_raw == (tmp_path / "front.json").read_text(encoding="utf-8")

    def test_late_subscriber_replays_the_full_history(self, service):
        job = service.submit(**SPEC)
        service.wait(job["id"])
        events = list(service.stream(job["id"]))
        assert [e["generation"] for e in events if e["type"] == "generation"] == [
            1, 2, 3, 4, 5,
        ]
        assert events[0]["type"] == "state"
        assert events[-1]["state"] == "done"


class TestCancellation:
    def test_cancel_mid_run_terminates_the_worker(self, service):
        # ~0.24s of forced sleep per generation: slow enough to catch
        # mid-flight on any machine, fast enough not to drag the suite.
        job = service.submit(problem="zdt1?delay=0.02", generations=500,
                             population=12, telemetry=False)
        deadline = time.monotonic() + 30
        while service.job(job["id"])["state"] == "queued":
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.02)
        service.cancel(job["id"])
        record = service.wait(job["id"], timeout=30)
        assert record["state"] == "cancelled"
        assert record["cancel_requested"] is True


class TestFailure:
    def test_crashing_evaluation_fails_only_its_job(self, service):
        crash = service.submit(problem="zdt1?fail_after=30", generations=50,
                               population=12, telemetry=False)
        record = service.wait(crash["id"], timeout=60)
        assert record["state"] == "failed"
        assert "deliberate failure injected" in record["error"]

        # The pool survives: the next job runs to completion.
        healthy = service.submit(**SPEC)
        assert service.wait(healthy["id"], timeout=120)["state"] == "done"

    def test_failed_job_result_stays_409(self, service):
        from repro.serve import ServiceError

        crash = service.submit(problem="zdt1?fail_after=5", generations=50,
                               population=12, telemetry=False)
        service.wait(crash["id"], timeout=60)
        with pytest.raises(ServiceError) as excinfo:
            service.result(crash["id"])
        assert excinfo.value.status == 409


def _children_of(pid):
    """Pids whose parent is ``pid``, read from ``/proc/<pid>/stat``."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        if int(stat.rpartition(")")[2].split()[1]) == pid:
            children.append(int(entry))
    return children


def _is_running(pid):
    try:
        state = Path("/proc", str(pid), "stat").read_text().rpartition(")")[2].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


def _runs_job(pid, job_id):
    """Whether ``pid`` is a worker running ``job_id``: its stderr is the job's ``runner.stderr``.

    The fork server's other children, such as the ``git rev-parse`` of its
    preload, run while a job is already marked running.
    """
    try:
        stderr = os.readlink(Path("/proc", str(pid), "fd", "2"))
    except OSError:
        return False
    return stderr.endswith(os.path.join(job_id, "runner.stderr"))


def _running_runner(client, app, job_id):
    """Wait until ``job_id`` runs in a worker of the fork server; that worker's pid."""
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        server = app._app.coordinator.fork_server
        if client.job(job_id)["state"] != "queued" and server is not None:
            workers = [
                pid for pid in _children_of(server.process.pid) if _runs_job(pid, job_id)
            ]
            if workers:
                return workers[0]
        time.sleep(0.02)
    pytest.fail("job %s never started a runner" % job_id)


class TestForkServerCrashPoints:
    def test_killed_fork_server_fails_its_jobs_and_is_respawned(self, tmp_path):
        with ServeThread(str(tmp_path / "data"), workers=1) as app:
            client = ServeClient(port=app.port, timeout=120)
            job = client.submit(problem="zdt1?delay=0.02", generations=500,
                                population=12, telemetry=False)
            runner = _running_runner(client, app, job["id"])
            os.kill(app._app.coordinator.fork_server.process.pid, signal.SIGKILL)
            record = client.wait(job["id"], timeout=30)
            assert record["state"] == "failed"
            assert "fork server exited with code -9" in record["error"]
            deadline = time.monotonic() + 10
            while _is_running(runner):
                assert time.monotonic() < deadline, "the orphaned runner survived"
                time.sleep(0.02)

            healthy = client.submit(**SPEC)
            assert client.wait(healthy["id"], timeout=120)["state"] == "done"

    def test_runner_killed_by_a_signal_fails_its_job(self, tmp_path):
        with ServeThread(str(tmp_path / "data"), workers=1) as app:
            client = ServeClient(port=app.port, timeout=120)
            job = client.submit(problem="zdt1?delay=0.02", generations=500,
                                population=12, telemetry=False)
            os.kill(_running_runner(client, app, job["id"]), signal.SIGKILL)
            record = client.wait(job["id"], timeout=30)
            assert record["state"] == "failed"
            assert record["error"] == "runner exited with code -9"
            assert record["cancel_requested"] is False


class TestSharedEvaluationCache:
    def test_second_identical_job_answers_from_the_shared_cache(self, tmp_path):
        with ServeThread(str(tmp_path / "data"), workers=1,
                         cache_dir=str(tmp_path / "cache")) as app:
            client = ServeClient(port=app.port, timeout=120)
            spec = dict(SPEC, seed=21)
            first = client.submit(**spec)
            client.wait(first["id"])
            second = client.submit(**spec)
            client.wait(second["id"])
        jobs_dir = tmp_path / "data" / "jobs"
        ledger = json.loads(
            (jobs_dir / second["id"] / "ledger.json").read_text(encoding="utf-8")
        )
        assert ledger["total_disk_hits"] > 0
        assert ledger["total_evaluations"] == 0
        front_one = (jobs_dir / first["id"] / "front.json").read_text(encoding="utf-8")
        front_two = (jobs_dir / second["id"] / "front.json").read_text(encoding="utf-8")
        assert front_one == front_two


class TestTelemetry:
    def test_telemetry_artifacts_land_in_the_job_dir(self, service):
        spec = dict(SPEC, telemetry=True, seed=13)
        job = service.submit(**spec)
        service.wait(job["id"])
        job_dir = service.data_dir / "jobs" / job["id"]
        assert (job_dir / "trace.jsonl").is_file()
        assert (job_dir / "timeseries.csv").is_file()
        assert not (job_dir / "metrics.json").exists()
        manifest = json.loads((job_dir / "manifest.json").read_text(encoding="utf-8"))
        assert {"trace.jsonl", "timeseries.csv"} <= set(manifest["artifacts"])
        assert "metrics.json" not in manifest["artifacts"]
        assert manifest["parameters"]["seed"] == 13


class TestLazyPackageImport:
    def test_runner_import_leaves_the_server_stack_unloaded(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        probe = (
            "import sys, repro.serve.runner\n"
            "loaded = [m for m in ('repro.serve.app', 'repro.serve.http',"
            " 'repro.serve.coordinator', 'repro.serve.client') if m in sys.modules]\n"
            "print(','.join(loaded))\n"
        )
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        completed = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
        )
        assert completed.stdout.strip() == ""

    def test_package_names_resolve_on_access(self):
        import repro.serve
        from repro.serve import JobStore, ServeClient, ServeThread
        from repro.serve.app import ServeThread as defined

        assert ServeThread is defined
        assert ServeClient.__module__ == "repro.serve.client"
        assert JobStore.__module__ == "repro.serve.store"
        assert all(getattr(repro.serve, name) is not None for name in repro.serve.__all__)
        with pytest.raises(AttributeError):
            repro.serve.NoSuchName


class TestForkServerEnvironment:
    def test_runner_imports_the_package_the_coordinator_found_on_sys_path(self, tmp_path):
        # The parent finds repro through sys.path alone, with no PYTHONPATH
        # and no installed copy: the fork server must still import it.
        import subprocess
        import sys

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        script = (
            "import sys\n"
            "sys.path.insert(0, %r)\n"
            "from repro.serve import ServeClient, ServeThread\n"
            "with ServeThread(%r, workers=1) as app:\n"
            "    client = ServeClient(port=app.port, timeout=120)\n"
            "    job = client.submit(**%r)\n"
            "    print(client.wait(job['id'], timeout=120)['state'])\n"
        ) % (src, str(tmp_path / "data"), SPEC)
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        completed = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env,
            cwd=tmp_path, timeout=180,
        )
        assert completed.stdout.strip() == "done", completed.stderr


class TestForkServerPreload:
    def test_preload_takes_the_float_power_verdict(self, monkeypatch):
        """Runners fork after the preload, so they inherit the guard's verdict."""
        from repro.moo import operators
        from repro.serve import runner

        monkeypatch.setattr(operators, "_float_power_exact", None)
        runner._preload()
        assert operators._float_power_exact in (True, False)

    def test_preload_resolves_the_git_revision(self):
        """Runners fork after the preload, so no job runs ``git rev-parse``."""
        from repro.core.artifacts import _git_revision
        from repro.serve import runner

        _git_revision.cache_clear()
        runner._preload()
        assert _git_revision.cache_info().currsize == 1
