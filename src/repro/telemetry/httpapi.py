"""HTTP observability endpoints: ``/metrics``, ``/healthz``, ``/status``.

A deliberately tiny asyncio HTTP/1.0-style listener (stdlib only — no
frameworks) that mounts beside whatever it observes:

* the fleet service runs it on the same event loop as the framed-socket
  server (``repro-mini serve --http-port``),
* a long VM run hosts it on a daemon thread with its own loop
  (``repro-mini run --metrics-port``), mirroring how the fleet
  publisher keeps socket work off the VM thread.

Endpoints:

``/metrics``
    The wired registry in Prometheus text format (see
    :mod:`repro.telemetry.promfmt`).
``/healthz``
    ``200 {"status": "ok"}`` while the process is serving.
``/status``
    The ``status_fn`` result as JSON — for the fleet service that is
    per-fingerprint aggregate sizes, epochs, and per-client
    publish/drop rates; for a VM run it is the live counters.

Every connection is one request: read the head, route on the path,
write the response, close.  Malformed or slow requests are dropped
without touching the observed state — the endpoints are read-only by
construction.
"""

from __future__ import annotations

import asyncio
import json
import threading

from repro.telemetry.promfmt import CONTENT_TYPE, render_registry

#: An honest bound on request heads; observability clients send GETs.
MAX_REQUEST_BYTES = 16 * 1024
REQUEST_TIMEOUT = 5.0


def _response(status: str, content_type: str, body: str) -> bytes:
    payload = body.encode()
    head = (
        f"HTTP/1.1 {status}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    )
    return head.encode() + payload


def _json_response(status: str, document) -> bytes:
    return _response(status, "application/json", json.dumps(document) + "\n")


class ObservabilityHTTP:
    """Serves ``/metrics``, ``/healthz``, and ``/status`` for one process."""

    def __init__(self, registry=None, status_fn=None, health_fn=None):
        #: Registry (or zero-arg callable returning one) behind /metrics.
        self.registry = registry
        #: Zero-arg callable returning the /status JSON document.
        self.status_fn = status_fn
        #: Zero-arg callable returning the /healthz JSON document.
        self.health_fn = health_fn
        self.requests = 0
        self._server: asyncio.AbstractServer | None = None
        self.address: tuple[str, int] | None = None

    # -- lifecycle --------------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle, host, port, limit=MAX_REQUEST_BYTES
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- request handling ---------------------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        try:
            try:
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), REQUEST_TIMEOUT
                )
            except (
                asyncio.IncompleteReadError,
                asyncio.LimitOverrunError,
                asyncio.TimeoutError,
                ConnectionError,
            ):
                return
            request_line = head.split(b"\r\n", 1)[0].decode("latin-1")
            parts = request_line.split()
            if len(parts) < 2:
                writer.write(_json_response("400 Bad Request", {"error": "bad request"}))
                return
            method, path = parts[0], parts[1].split("?", 1)[0]
            self.requests += 1
            if method != "GET":
                writer.write(
                    _json_response(
                        "405 Method Not Allowed", {"error": "only GET is supported"}
                    )
                )
                return
            writer.write(await self._route(path))
        finally:
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(self, path: str) -> bytes:
        if path == "/healthz":
            document = self.health_fn() if self.health_fn is not None else None
            if document is None:
                document = {"status": "ok"}
            return _json_response("200 OK", document)
        if path == "/metrics":
            registry = self.registry() if callable(self.registry) else self.registry
            if registry is None:
                return _json_response(
                    "503 Service Unavailable", {"error": "no metrics registry wired"}
                )
            return _response("200 OK", CONTENT_TYPE, render_registry(registry))
        if path == "/status":
            if self.status_fn is None:
                return _json_response(
                    "503 Service Unavailable", {"error": "no status source wired"}
                )
            return _json_response("200 OK", self.status_fn())
        return _json_response(
            "404 Not Found",
            {"error": f"unknown path {path!r}", "paths": ["/metrics", "/healthz", "/status"]},
        )


class HttpServerThread:
    """Run an :class:`ObservabilityHTTP` on a daemon thread.

    The VM-run topology (``run --metrics-port``): the interpreter owns
    the main thread, so the listener gets its own event loop on a
    daemon thread — exactly how the fleet publisher keeps socket work
    away from the VM.  ``start()`` blocks until the socket is bound and
    returns the address; ``stop()`` shuts the loop down.
    """

    def __init__(self, server: ObservabilityHTTP, host: str = "127.0.0.1", port: int = 0):
        self.server = server
        self.host = host
        self.port = port
        self.address: tuple[str, int] | None = None
        self._ready = threading.Event()
        self._failure: Exception | None = None
        self._loop = None
        self._stop_event = None
        self._thread = threading.Thread(
            target=self._run, name="observability-http", daemon=True
        )

    def start(self, timeout: float = 5.0) -> tuple[str, int]:
        self._thread.start()
        if not self._ready.wait(timeout):
            raise OSError("observability HTTP listener failed to start")
        if self._failure is not None:
            raise self._failure
        return self.address

    def stop(self, timeout: float = 5.0) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout)

    def __enter__(self) -> "HttpServerThread":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except Exception as error:  # surfaced to start() when binding failed
            self._failure = error
            self._ready.set()

    async def _main(self) -> None:
        try:
            self.address = await self.server.start(self.host, self.port)
        except Exception as error:
            self._failure = error
            self._ready.set()
            return
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._ready.set()
        await self._stop_event.wait()
        await self.server.stop()
