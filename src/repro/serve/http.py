"""Stdlib-only asyncio HTTP/1.1 front end of the optimization service.

No web framework: requests are parsed straight off an
:func:`asyncio.start_server` stream, every response carries
``Connection: close``, and the SSE stream is a close-delimited body — the
three simplifications that make a correct HTTP server small enough to live
in one module with zero dependencies beyond the standard library.

Routes
------
======  ==========================  =======================================
Method  Path                        Meaning
======  ==========================  =======================================
POST    ``/jobs``                   submit a job (201 + record)
GET     ``/jobs``                   list all job records
GET     ``/jobs/{id}``              one job record
GET     ``/jobs/{id}/events``       SSE progress stream (replay + live)
GET     ``/jobs/{id}/result``       finished front (409 until ``done``)
POST    ``/jobs/{id}/cancel``       cancel (idempotent)
GET     ``/healthz``                liveness probe
GET     ``/stats``                  coordinator/pool introspection
======  ==========================  =======================================

Errors map one-to-one onto the domain exceptions: unknown job id → 404,
invalid spec or payload → 400, result-not-ready → 409.  Requests the parser
refuses get 400 (bad Content-Length), 413 (body too large), 414 (request
line too long) or 431 (a header line too long, or too many headers).

Example
-------
Serve an existing coordinator on an OS-assigned port::

    server = HttpServer(coordinator, host="127.0.0.1", port=0)
    await server.start()
    print(server.port)
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.exceptions import ConfigurationError
from repro.serve.coordinator import Coordinator
from repro.serve.jobs import JobNotFinishedError, UnknownJobError

__all__ = ["HttpServer"]

_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    414: "URI Too Long",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}

#: Largest accepted request body (submit payloads are tiny).
_MAX_BODY = 1 << 20

#: Longest accepted request line or header line, in bytes (the stream
#: reader's buffer limit).
_MAX_LINE = 1 << 16

#: Most header lines accepted in one request.
_MAX_HEADERS = 100

#: Seconds a client has to send its whole request; an idle or half-sent
#: request is dropped then instead of holding its handler forever.
_READ_DEADLINE = 10.0


class _RejectedRequest(Exception):
    """A request refused while parsing, with the status it earns."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class HttpServer:
    """The asyncio HTTP front end over one :class:`Coordinator`.

    Parameters
    ----------
    coordinator:
        The started coordinator handling submit/cancel/subscribe.
    host, port:
        Bind address; ``port=0`` lets the OS pick (read it back from
        :attr:`port` after :meth:`start` — how tests avoid collisions).

    Example
    -------
    >>> import tempfile
    >>> from repro.serve.store import JobStore
    >>> coordinator = Coordinator(JobStore(tempfile.mkdtemp()), workers=0)
    >>> HttpServer(coordinator, port=0).port is None
    True
    """

    def __init__(
        self,
        coordinator: Coordinator,
        host: str = "127.0.0.1",
        port: int = 8765,
    ) -> None:
        self.coordinator = coordinator
        self.host = host
        self.port: "int | None" = None
        self._requested_port = int(port)
        self._server: "asyncio.AbstractServer | None" = None

    async def start(self) -> None:
        """Bind and start accepting connections; resolves :attr:`port`."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self._requested_port, limit=_MAX_LINE
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting connections and close the listener."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await asyncio.wait_for(self._read_request(reader), _READ_DEADLINE)
            if request is None:
                return
            method, path, body = request
            await self._route(writer, method, path, body)
        except _RejectedRequest as error:
            try:
                await self._send_json(writer, error.status, {"error": str(error)})
            except (ConnectionResetError, BrokenPipeError):
                pass
        except (ConnectionResetError, BrokenPipeError, asyncio.TimeoutError):
            pass  # peer gone, or its request not read within _READ_DEADLINE
        except Exception as error:  # pragma: no cover - defensive
            try:
                await self._send_json(writer, 500, {"error": str(error)})
            except (ConnectionResetError, BrokenPipeError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> "tuple[str, str, bytes] | None":
        """Parse one request: request line, headers, Content-Length body.

        A request line longer than :data:`_MAX_LINE` is refused with 414, a
        longer header line or more than :data:`_MAX_HEADERS` headers with
        431.  A Content-Length that is not a non-negative integer is refused
        with 400, and one above :data:`_MAX_BODY` with 413 before any of the
        body is read.  The caller bounds the whole read by
        :data:`_READ_DEADLINE`.
        """
        line = await self._read_line(reader, 414, "request line")
        if not line.strip():
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        content_length = 0
        headers = 0
        while True:
            header = await self._read_line(reader, 431, "header line")
            if header in (b"\r\n", b"\n", b""):
                break
            headers += 1
            if headers > _MAX_HEADERS:
                raise _RejectedRequest(431, "more than %d headers" % _MAX_HEADERS)
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value)
                except ValueError:
                    content_length = -1
                if content_length < 0:
                    raise _RejectedRequest(
                        400, "invalid Content-Length %r" % value.strip()
                    )
        if content_length > _MAX_BODY:
            raise _RejectedRequest(
                413,
                "request body of %d bytes exceeds the %d-byte limit"
                % (content_length, _MAX_BODY),
            )
        body = await reader.readexactly(content_length) if content_length else b""
        path = target.split("?", 1)[0]
        return method, path, body

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader, status: int, what: str) -> bytes:
        """One CRLF-terminated line; a line over :data:`_MAX_LINE` earns ``status``."""
        try:
            return await reader.readline()
        except ValueError:  # the reader's limit overrun, raised by readline
            raise _RejectedRequest(
                status, "%s exceeds the %d-byte limit" % (what, _MAX_LINE)
            ) from None

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(
        self, writer: asyncio.StreamWriter, method: str, path: str, body: bytes
    ) -> None:
        segments = [segment for segment in path.split("/") if segment]
        try:
            if segments == ["healthz"] and method == "GET":
                await self._send_json(
                    writer, 200, {"status": "ok", "workers": self.coordinator.workers}
                )
            elif segments == ["stats"] and method == "GET":
                await self._send_json(writer, 200, self.coordinator.stats())
            elif segments == ["jobs"] and method == "POST":
                # Imported here, not at module top: loading repro.solve
                # would slow the service's start, which never needs it.
                from repro.solve.request import SolveRequest

                spec = SolveRequest.from_payload(self._parse_json(body))
                record = await self.coordinator.submit(spec)
                await self._send_json(writer, 201, record.as_dict())
            elif segments == ["jobs"] and method == "GET":
                payload = {"jobs": [r.as_dict() for r in self.coordinator.list_jobs()]}
                await self._send_json(writer, 200, payload)
            elif len(segments) == 2 and segments[0] == "jobs" and method == "GET":
                await self._send_json(
                    writer, 200, self.coordinator.get(segments[1]).as_dict()
                )
            elif (
                len(segments) == 3
                and segments[0] == "jobs"
                and segments[2] == "cancel"
                and method == "POST"
            ):
                record = await self.coordinator.cancel(segments[1])
                await self._send_json(writer, 200, record.as_dict())
            elif (
                len(segments) == 3
                and segments[0] == "jobs"
                and segments[2] == "result"
                and method == "GET"
            ):
                await self._send_json(
                    writer, 200, self.coordinator.result_payload(segments[1])
                )
            elif (
                len(segments) == 3
                and segments[0] == "jobs"
                and segments[2] == "events"
                and method == "GET"
            ):
                await self._stream_events(writer, segments[1])
            else:
                await self._send_json(
                    writer, 404, {"error": "no route %s %s" % (method, path)}
                )
        except UnknownJobError as error:
            await self._send_json(writer, 404, {"error": str(error)})
        except JobNotFinishedError as error:
            await self._send_json(writer, 409, {"error": str(error)})
        except ConfigurationError as error:
            await self._send_json(writer, 400, {"error": str(error)})

    @staticmethod
    def _parse_json(body: bytes) -> Any:
        try:
            return json.loads(body.decode("utf-8")) if body else {}
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise ConfigurationError("request body is not valid JSON: %s" % error)

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------
    async def _send_json(
        self, writer: asyncio.StreamWriter, status: int, payload: Any
    ) -> None:
        data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        head = (
            "HTTP/1.1 %d %s\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: %d\r\n"
            "Connection: close\r\n"
            "\r\n" % (status, _REASONS.get(status, "Unknown"), len(data))
        )
        writer.write(head.encode("latin-1") + data)
        await writer.drain()

    async def _stream_events(self, writer: asyncio.StreamWriter, job_id: str) -> None:
        """Serve one SSE subscription: durable replay, then live events.

        The body is close-delimited (no Content-Length): the connection
        stays open until the job reaches a terminal state or the client
        disconnects, exactly the lifetime of the subscription.
        """
        history, queue = self.coordinator.subscribe(job_id)
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        try:
            writer.write(head.encode("latin-1"))
            for event in history:
                writer.write(self._sse_frame(event))
            await writer.drain()
            while True:
                event = await queue.get()
                if event is None:
                    break
                writer.write(self._sse_frame(event))
                await writer.drain()
        finally:
            self.coordinator.unsubscribe(job_id, queue)

    @staticmethod
    def _sse_frame(event: dict) -> bytes:
        kind = event.get("type", "message")
        return (
            "event: %s\ndata: %s\n\n" % (kind, json.dumps(event, sort_keys=True))
        ).encode("utf-8")
