"""Service assembly: store + coordinator + HTTP server as one unit.

:class:`ServeApp` wires the three layers together and owns their combined
lifecycle; :func:`run_app` is the blocking entry point the ``repro serve``
CLI calls; :class:`ServeThread` runs the same app on a daemon thread with
its own event loop — how tests and the benchmark get a real HTTP service
in-process without managing subprocesses.

Example
-------
In-process service for a test::

    from repro.serve import ServeClient, ServeThread

    with ServeThread(data_dir, workers=2) as app:
        client = ServeClient(port=app.port)
        job = client.submit(problem="zdt1", generations=4)
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any

from repro.serve.coordinator import Coordinator
from repro.serve.http import HttpServer
from repro.serve.store import JobStore

__all__ = ["ServeApp", "ServeThread", "run_app"]


class ServeApp:
    """One assembled service: durable store, worker pool, HTTP front end.

    Parameters
    ----------
    data_dir:
        Service data directory (jobs live under ``<data_dir>/jobs``).
    host, port:
        HTTP bind address; ``port=0`` asks the OS for a free port.
    workers:
        Worker subprocess slots (``0`` = accept jobs but do not run them).
    cache_dir:
        Optional shared evaluation-cache directory; every job runner the
        pool spawns reads and writes the same persistent cache, so repeated
        or similar jobs skip evaluations earlier jobs already paid for.

    Example
    -------
    >>> import tempfile
    >>> app = ServeApp(tempfile.mkdtemp(), port=0, workers=0)
    >>> app.port is None
    True
    """

    def __init__(
        self,
        data_dir: str,
        host: str = "127.0.0.1",
        port: int = 8765,
        workers: int = 2,
        cache_dir: "str | None" = None,
    ) -> None:
        self.store = JobStore(data_dir)
        self.coordinator = Coordinator(self.store, workers=workers, cache_dir=cache_dir)
        self.server = HttpServer(self.coordinator, host=host, port=port)

    @property
    def port(self) -> "int | None":
        """The bound HTTP port (``None`` until :meth:`start`)."""
        return self.server.port

    async def start(self) -> None:
        """Recover the queue, launch workers, start accepting HTTP."""
        await self.coordinator.start()
        await self.server.start()

    async def stop(self) -> None:
        """Stop HTTP, terminate running jobs, wind down the pool."""
        await self.server.stop()
        await self.coordinator.stop()


def run_app(
    data_dir: str,
    host: str = "127.0.0.1",
    port: int = 8765,
    workers: int = 2,
    cache_dir: "str | None" = None,
    announce: Any = None,
) -> None:
    """Run a service until interrupted (the blocking ``repro serve`` body).

    Parameters
    ----------
    cache_dir:
        Optional persistent evaluation cache shared by every job runner
        (``repro serve --cache-dir``).
    announce:
        Optional callable receiving the bound port once listening — the CLI
        passes a printer so scripts wrapping ``--port 0`` learn the real
        port from stdout.

    Example
    -------
    Serve the current directory's ``serve-data`` on port 8765::

        run_app("serve-data", port=8765, workers=2)
    """

    async def _main() -> None:
        app = ServeApp(
            data_dir, host=host, port=port, workers=workers, cache_dir=cache_dir
        )
        await app.start()
        if announce is not None:
            announce(app.port)
        try:
            await asyncio.Event().wait()
        finally:
            await app.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


class ServeThread:
    """A :class:`ServeApp` on a daemon thread with a private event loop.

    ``start()`` blocks until the HTTP port is bound, so the caller can
    connect immediately; ``stop()`` shuts the app down on its own loop and
    joins the thread.  Usable as a context manager.

    Example
    -------
    >>> import tempfile
    >>> with ServeThread(tempfile.mkdtemp(), workers=0) as app:
    ...     isinstance(app.port, int)
    True
    """

    def __init__(
        self,
        data_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        cache_dir: "str | None" = None,
    ) -> None:
        self._app = ServeApp(
            data_dir, host=host, port=port, workers=workers, cache_dir=cache_dir
        )
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._thread: "threading.Thread | None" = None
        self._ready = threading.Event()

    @property
    def port(self) -> "int | None":
        """The bound HTTP port (set once :meth:`start` returns)."""
        return self._app.port

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self._app.start())
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self._app.stop())
            self._loop.close()

    def start(self) -> "ServeThread":
        """Launch the thread and wait until the service is listening."""
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service thread did not start within 30s")
        return self

    def stop(self) -> None:
        """Shut the service down and join the thread."""
        if self._loop is not None and self._thread is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30)
            self._thread = None

    def __enter__(self) -> "ServeThread":
        """Start on entry."""
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        """Stop on exit."""
        self.stop()
