"""repro.serve — the optimization service: durable jobs over HTTP + SSE.

A stdlib-only asyncio service that runs :func:`repro.solve.solve` jobs
submitted over HTTP, with a durable on-disk queue, live progress streaming
and restart recovery:

* :class:`~repro.serve.jobs.JobRecord` — the per-job state machine
  (``queued → running → checkpointed → done/failed/cancelled``) around the
  submitted :class:`~repro.solve.request.SolveRequest`;
* :class:`~repro.serve.store.JobStore` — one directory per job,
  ``job.json`` written atomically, recovery by rescanning the tree;
* :class:`~repro.serve.coordinator.Coordinator` — bounded worker pool
  executing each job in a process forked by one warm ``python -m
  repro.serve.runner <data_dir>`` fork server and fanning its event log
  out to SSE subscribers;
* :class:`~repro.serve.http.HttpServer` — the dependency-free HTTP/1.1
  front end (``POST /jobs``, ``GET /jobs/{id}/events`` as SSE,
  ``/result``, ``/cancel``, ``/healthz``, ``/stats``);
* :class:`~repro.serve.app.ServeApp` / :class:`~repro.serve.app.ServeThread`
  / :func:`~repro.serve.app.run_app` — assembly and lifecycles (CLI,
  in-process tests);
* :class:`~repro.serve.client.ServeClient` — the matching stdlib client
  (submit / stream / result / cancel / wait).

Start a server (CLI) and drive it from Python::

    repro serve --port 8765 --workers 2 --data-dir serve-data

    from repro.serve import ServeClient
    client = ServeClient(port=8765)
    job = client.submit(problem="zdt1", algorithm="nsga2", generations=20)
    for event in client.stream(job["id"]):
        print(event)
    front = client.result(job["id"])

See ``docs/serving.md`` for the endpoint reference, the state machine and
the recovery semantics.
"""

import importlib

#: Public name -> submodule defining it.  Resolved on first access by
#: :func:`__getattr__`, so the ``python -m repro.serve.runner`` fork server
#: imports only the runner's own dependencies, not the HTTP server stack.
_EXPORTS = {
    "ServeApp": "app",
    "ServeThread": "app",
    "run_app": "app",
    "ServeClient": "client",
    "ServiceError": "client",
    "Coordinator": "coordinator",
    "JobChannel": "coordinator",
    "HttpServer": "http",
    "QUEUED": "jobs",
    "RUNNING": "jobs",
    "CHECKPOINTED": "jobs",
    "DONE": "jobs",
    "FAILED": "jobs",
    "CANCELLED": "jobs",
    "JOB_STATES": "jobs",
    "TERMINAL_STATES": "jobs",
    "InvalidTransitionError": "jobs",
    "JobNotFinishedError": "jobs",
    "UnknownJobError": "jobs",
    "JobRecord": "jobs",
    "EventLogObserver": "runner",
    "run_job": "runner",
    "JobStore": "store",
}


def __getattr__(name: str):
    """Import the submodule that defines ``name`` and return the attribute."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("%s.%s" % (__name__, module)), name)
    globals()[name] = value
    return value


__all__ = list(_EXPORTS)
