"""Live telemetry endpoints: a stdlib-only asyncio HTTP server.

The paper's pitch is that verification runs *on the devices* as a
long-lived distributed protocol -- which means operators need to observe
a running fleet, not just read files after it exits.  Every runtime
agent embeds a :class:`TelemetryServer` (wired into the
``DeviceHost`` lifecycle in :mod:`repro.runtime.cluster`) exposing:

* ``GET /metrics`` -- the shared metrics registry in Prometheus text
  exposition (scrape it with Prometheus or ``curl``);
* ``GET /healthz`` -- the device's :class:`DeviceStatus` record as JSON
  (session states from the OPEN handshake, peer liveness, queue depths,
  convergence phase, uptime, the device's own traffic and session
  counters); answers ``503`` when its ``"status"`` is anything but
  ``"ok"``.  This is the one document the fleet
  :class:`~repro.obs.collector.Collector` reads;
* ``GET /debug/flight`` -- the device's flight-recorder dump (ring of
  typed events with Lamport clocks, see :mod:`repro.obs.flight`); 404
  when the owning backend records no flights.

The server is deliberately tiny: HTTP/1.1, ``Connection: close``, GET
and HEAD only -- enough for ``curl``, Prometheus, and the in-repo
collector, with no dependency beyond asyncio.  Handlers run on the
owning backend's event loop and the render path never awaits, so every
response is a *consistent* snapshot (no torn reads: writers are
callbacks on the same loop).
"""

from __future__ import annotations

import asyncio
import errno
import json
from dataclasses import asdict, dataclass, fields
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.log import get_logger, kv
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "CONTENT_TYPE_JSON",
    "CONTENT_TYPE_TEXT",
    "DeviceStatus",
    "TelemetryServer",
    "http_get",
]

logger = get_logger("obs.serve")

#: Prometheus text exposition content type (format version 0.0.4).
CONTENT_TYPE_TEXT = "text/plain; version=0.0.4; charset=utf-8"
CONTENT_TYPE_JSON = "application/json; charset=utf-8"

_REASONS = {
    200: "OK",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

RegistryProvider = Callable[[], MetricsRegistry]
HealthProvider = Callable[[], Dict[str, object]]
FlightProvider = Callable[[], Dict[str, object]]


@dataclass
class DeviceStatus:
    """One device's status record: the ``/healthz`` document.

    ``DeviceHost.status`` builds it in one event-loop tick, so phase,
    queues and counters are one consistent sample; building it changes
    nothing.  Every reader -- the collector, ``repro top``, ``repro
    testbed`` -- reads this record.  ``status`` is ``"degraded"`` while
    any administratively-up session is not established (``peers_down``).
    The traffic counts are the device's own counting frames and bytes;
    the session counters are totals since boot.
    """

    status: str  # "ok" | "degraded"
    device: str
    phase: str  # "idle" | "converging"
    uptime_seconds: float
    dvm_port: int
    http_port: int
    inbox_depth: int
    #: peer -> ``established``, ``admin_up``, ``pending_out`` and, once
    #: the peer was heard from, ``last_rx_age_seconds``.
    sessions: Dict[str, Dict[str, object]]
    peers_down: List[str]
    decode_errors: int
    messages_in: int
    messages_out: int
    bytes_in: int
    bytes_out: int
    reconnects: int
    peer_down_events: int
    handshake_failures: int

    @property
    def pending_out(self) -> int:
        """Frames queued toward every peer."""
        return sum(
            int(entry["pending_out"])  # type: ignore[call-overload]
            for entry in self.sessions.values()
        )

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, document: object) -> "DeviceStatus":
        """The record a ``/healthz`` body carries; ``ValueError`` when
        the body is not one (e.g. a provider that raised)."""
        if not isinstance(document, dict):
            raise ValueError("status document is not a JSON object")
        names = [field.name for field in fields(cls)]
        missing = [name for name in names if name not in document]
        if missing:
            raise ValueError(
                f"status document lacks {missing[0]!r} "
                f"(error: {document.get('error', '-')})"
            )
        return cls(**{name: document[name] for name in names})


class TelemetryServer:
    """One agent's ``/metrics`` + ``/healthz`` server.

    ``registry_provider`` is called per request so the served registry
    can be swapped or lazily built; ``health_provider`` returns the
    ``/healthz`` JSON document (a runtime agent's is its
    :class:`DeviceStatus`) -- its ``"status"`` key decides the HTTP
    status (``"ok"`` -> 200, anything else -> 503).

    ``port_retry_window`` bounds EADDRINUSE fallback for planned (fixed)
    ports: when the requested port is taken, ``start()`` walks up to
    ``port + port_retry_window`` inclusive before giving up.  The bound
    port is written back to :attr:`port`, which is what
    ``deployment.http_endpoints`` reports -- so a stale socket in
    TIME_WAIT shifts an agent one port over instead of crashing it.
    """

    def __init__(
        self,
        registry_provider: RegistryProvider,
        health_provider: HealthProvider,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        port_retry_window: int = 0,
        request_timeout: float = 5.0,
        flight_provider: Optional[FlightProvider] = None,
    ) -> None:
        self._registry_provider = registry_provider
        self._health_provider = health_provider
        self._flight_provider = flight_provider
        self.host = host
        self.port = port  # the bound port after start() (0 = ephemeral)
        self._requested_port = port
        self.port_retry_window = port_retry_window
        self.request_timeout = request_timeout
        self.requests_served = 0
        self._server: Optional["asyncio.Server"] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        requested = self._requested_port
        window = self.port_retry_window if requested else 0
        server: Optional["asyncio.Server"] = None
        for offset in range(window + 1):
            candidate = requested + offset
            try:
                server = await asyncio.start_server(
                    self._handle, host=self.host, port=candidate
                )
                break
            except OSError as exc:
                if exc.errno != errno.EADDRINUSE or offset >= window:
                    raise
                logger.warning(
                    "telemetry port in use, retrying next offset",
                    extra=kv(host=self.host, port=candidate),
                )
        if server is None:  # unreachable: the final attempt re-raises
            raise OSError(errno.EADDRINUSE, "no free telemetry port")
        self._server = server
        self.port = self._server.sockets[0].getsockname()[1]
        logger.debug(
            "telemetry server listening",
            extra=kv(host=self.host, port=self.port),
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- request handling --------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), timeout=self.request_timeout
            )
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                return  # not HTTP; hang up
            method, path = parts[0], parts[1]
            # Drain (and ignore) the request headers.
            while True:
                line = await asyncio.wait_for(
                    reader.readline(), timeout=self.request_timeout
                )
                if line in (b"\r\n", b"\n", b""):
                    break
            status, content_type, body = self._render(method, path)
            head = (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n"
                "\r\n"
            )
            # HEAD: the same headers (Content-Length included), no body.
            if method == "HEAD":
                body = b""
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
            self.requests_served += 1
        except (asyncio.TimeoutError, ConnectionError, OSError):
            pass  # slow or vanished client: drop the connection
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _render(self, method: str, path: str) -> Tuple[int, str, bytes]:
        """(status, content type, body) for one request.  Never awaits."""
        path = path.split("?", 1)[0]
        if method not in ("GET", "HEAD"):
            return 405, CONTENT_TYPE_TEXT, b"GET and HEAD only\n"
        if path == "/metrics":
            registry = self._registry_provider()
            return 200, CONTENT_TYPE_TEXT, registry.render_text().encode("utf-8")
        if path == "/healthz":
            try:
                health = self._health_provider()
            except Exception as exc:  # surface as unhealthy, not a hang
                logger.warning(
                    "health provider raised", extra=kv(error=repr(exc))
                )
                health = {"status": "error", "error": repr(exc)}
            status = 200 if health.get("status") == "ok" else 503
            body = json.dumps(health, indent=2, sort_keys=True, default=str)
            return status, CONTENT_TYPE_JSON, body.encode("utf-8")
        if path == "/debug/flight":
            if self._flight_provider is None:
                return 404, CONTENT_TYPE_TEXT, b"no flight recorder\n"
            dump = self._flight_provider()
            body = json.dumps(dump, sort_keys=True, default=str)
            return 200, CONTENT_TYPE_JSON, body.encode("utf-8")
        return 404, CONTENT_TYPE_TEXT, b"unknown path\n"


# ---------------------------------------------------------------------------
# minimal HTTP client (the collector's scrape path; stdlib asyncio only)


async def http_get(
    host: str, port: int, path: str, timeout: float = 5.0
) -> Tuple[int, bytes]:
    """``GET http://host:port/path``; returns ``(status, body)``.

    Raises ``ConnectionError`` / ``OSError`` when the endpoint is
    unreachable or answers garbage, ``asyncio.TimeoutError`` on
    deadline -- the callers treat all three as "agent down".

    The deadline is enforced with ``asyncio.wait`` rather than
    ``asyncio.wait_for``: on Python < 3.12 ``wait_for`` swallows an
    *external* cancellation that races with the inner future completing,
    which left cancelled scrape loops running forever (their canceller
    awaits them indefinitely).  Callers that cancel a task blocked here
    always see ``CancelledError``.
    """

    async def _fetch() -> Tuple[int, bytes]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            request = (
                f"GET {path} HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                "Connection: close\r\n"
                "\r\n"
            )
            writer.write(request.encode("latin-1"))
            await writer.drain()
            raw = await reader.read(-1)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        head, separator, body = raw.partition(b"\r\n\r\n")
        status_parts = head.split(b"\r\n", 1)[0].split()
        if (
            not separator
            or len(status_parts) < 2
            or not status_parts[0].startswith(b"HTTP/")
        ):
            raise ConnectionError(
                f"malformed HTTP response from {host}:{port}{path}"
            )
        return int(status_parts[1]), body

    fetch = asyncio.get_running_loop().create_task(_fetch())

    async def _reap() -> None:
        fetch.cancel()
        try:
            await fetch
        except (
            asyncio.CancelledError,
            ConnectionError,
            OSError,
            ValueError,
        ):
            pass

    try:
        done, _pending = await asyncio.wait({fetch}, timeout=timeout)
    except asyncio.CancelledError:
        await _reap()
        raise
    if not done:
        await _reap()
        raise asyncio.TimeoutError(f"GET {host}:{port}{path} timed out")
    return fetch.result()

