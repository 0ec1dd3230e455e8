"""Stdlib HTTP client for the optimization service.

A thin, dependency-free wrapper over :mod:`http.client`: one method per
endpoint, JSON in/out, plus an SSE reader that turns the ``/events`` stream
into an iterator of event dictionaries.  Every request uses its own
connection (the server closes after each response), so the client object is
stateless and safe to share across threads.

Example
-------
Submit a job and follow it to the front::

    from repro.serve import ServeClient

    client = ServeClient(port=8765)
    job = client.submit(problem="zdt1", algorithm="nsga2",
                        seed=7, generations=20)
    for event in client.stream(job["id"]):
        print(event["type"], event.get("generation"))
    front = client.result(job["id"])
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Iterator

__all__ = ["ServeClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A non-2xx response from the service, carrying the HTTP status.

    Attributes
    ----------
    status:
        The HTTP status code (400 bad spec, 404 unknown job, 409 result
        not ready, ...).

    Example
    -------
    >>> error = ServiceError(404, "unknown job '42'")
    >>> error.status
    404
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__("HTTP %d: %s" % (status, message))
        self.status = status


class ServeClient:
    """Client for one service instance at ``host:port``.

    Parameters
    ----------
    host, port:
        Where the service listens.
    timeout:
        Socket timeout in seconds for every request (streams included —
        pick it larger than the expected generation interval).

    Example
    -------
    >>> client = ServeClient(port=8765)
    >>> client.host, client.port
    ('127.0.0.1', 8765)
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8765, timeout: float = 120.0
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _request(self, method: str, path: str, payload: Any = None) -> Any:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            body = None
            headers = {}
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            data = response.read().decode("utf-8")
            parsed = json.loads(data) if data.strip() else None
            if response.status >= 400:
                message = parsed.get("error", data) if isinstance(parsed, dict) else data
                raise ServiceError(response.status, message)
            return parsed
        finally:
            connection.close()

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def submit(self, **spec: Any) -> dict:
        """POST /jobs — submit a job spec, return the queued record.

        Keyword arguments are the :class:`~repro.solve.request.SolveRequest`
        fields: ``problem`` (required), ``algorithm``, ``seed``,
        ``generations``, ``max_evaluations``, ``wall_clock``,
        ``hv_patience``, ``hv_tolerance``, ``population``,
        ``checkpoint_interval``, ``telemetry``.  A request that can only
        fail is refused here with a 400 :class:`ServiceError`.
        """
        return self._request("POST", "/jobs", payload=spec)

    def jobs(self) -> list[dict]:
        """GET /jobs — every job record, in submission order."""
        return self._request("GET", "/jobs")["jobs"]

    def job(self, job_id: str) -> dict:
        """GET /jobs/{id} — one job record."""
        return self._request("GET", "/jobs/%s" % job_id)

    def cancel(self, job_id: str) -> dict:
        """POST /jobs/{id}/cancel — request cancellation (idempotent)."""
        return self._request("POST", "/jobs/%s/cancel" % job_id)

    def result(self, job_id: str) -> dict:
        """GET /jobs/{id}/result — the finished front payload (409 until done)."""
        return self._request("GET", "/jobs/%s/result" % job_id)

    def healthz(self) -> dict:
        """GET /healthz — liveness probe."""
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        """GET /stats — coordinator and pool introspection."""
        return self._request("GET", "/stats")

    def stream(self, job_id: str) -> Iterator[dict]:
        """GET /jobs/{id}/events — iterate the SSE stream as dictionaries.

        Replays the durable history first, then yields live events until
        the job reaches a terminal state and the server closes the stream.
        Each yielded dictionary carries a ``"type"`` key (``state``,
        ``generation``, ``checkpoint``, ``migration``).
        """
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request("GET", "/jobs/%s/events" % job_id)
            response = connection.getresponse()
            if response.status >= 400:
                data = response.read().decode("utf-8")
                try:
                    message = json.loads(data).get("error", data)
                except json.JSONDecodeError:
                    message = data
                raise ServiceError(response.status, message)
            data_lines: list[str] = []
            while True:
                raw = response.readline()
                if not raw:
                    break
                line = raw.decode("utf-8").rstrip("\r\n")
                if not line:
                    if data_lines:
                        yield json.loads("\n".join(data_lines))
                        data_lines = []
                    continue
                if line.startswith("data:"):
                    data_lines.append(line[len("data:"):].lstrip())
        finally:
            connection.close()

    def wait(self, job_id: str, timeout: float = 300.0, interval: float = 0.1) -> dict:
        """Poll /jobs/{id} until the job reaches a terminal state.

        Raises :class:`TimeoutError` if the job is still active after
        ``timeout`` seconds.
        """
        import time

        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record["state"] in ("done", "failed", "cancelled"):
                return record
            if time.monotonic() > deadline:
                raise TimeoutError(
                    "job %s still %s after %.1fs" % (job_id, record["state"], timeout)
                )
            time.sleep(interval)
