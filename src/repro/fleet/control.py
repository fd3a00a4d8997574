"""JSON-lines control channel between the fleet launcher and workers.

One request per connection: the client writes a single JSON object on
one line, the server answers with a single JSON object on one line and
closes.  Deliberately minimal -- the channel carries orchestration
(begin/inject/settle/stop) and small status documents, never DVM
traffic, so one-shot connections keep both sides trivially robust to
peer death.

Responses always carry ``"ok"``: ``True`` with the op's payload, or
``False`` with an ``"error"`` string (unknown op or key, handler
exception, a payload that is not the op's row).

The vocabulary is :data:`OPS`, and both ends run off it: the server
dispatches a request to the ``_op_<name>`` method of its target, and the
launcher takes each call's deadline from the row (:func:`row_of`).
``docs/RUNTIME.md`` documents the same table
(``tests/fleet/test_control.py`` compares them).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.obs.log import get_logger, kv

__all__ = ["ControlServer", "OPS", "Op", "call", "dispatch", "row_of"]

logger = get_logger("fleet.control")

#: Line-size cap for one control message (verdict lists can be large).
_LINE_LIMIT = 2 ** 22


@dataclass(frozen=True)
class Op:
    """One control op: what it may carry, what it answers, how long."""

    #: Request key -> coercion of its JSON value.  Keys are optional on
    #: the wire; the ``_op_`` method's signature holds the defaults.
    request: Mapping[str, Callable[[Any], object]]
    #: Exactly the keys of the response payload (besides ``ok``).
    response: Tuple[str, ...]
    #: Launcher-side deadline for one round-trip, seconds.
    timeout: float


#: Every control op.  Liveness probes answer from memory (2 s); the
#: injections run verifier work before answering (60 s).
OPS: Dict[str, Op] = {
    "ping": Op({}, ("worker", "ready", "devices"), 2.0),
    "status": Op(
        {"wait": float},
        ("worker", "ready", "devices", "settled_local", "links", "phase",
         "sessions_established", "peers_down", "peer_down_events"),
        30.0,
    ),
    "endpoints": Op({}, ("http",), 30.0),
    "begin": Op({"label": str}, (), 30.0),
    "install": Op({}, ("plans",), 60.0),
    "update": Op(
        {"index": int, "count": int},
        ("applied", "device", "description"),
        60.0,
    ),
    "link": Op({"a": str, "b": str, "up": bool}, (), 60.0),
    "finish": Op({}, ("seconds",), 30.0),
    "verdicts": Op({}, ("verdicts",), 30.0),
    "metrics": Op({}, ("messages", "bytes", "reconnects"), 30.0),
    "dump_flight": Op({}, ("flight",), 30.0),
    "stop": Op({}, (), 2.0),
}


def row_of(request: Mapping[str, object]) -> Op:
    """The :data:`OPS` row of ``request``; refuses what is not in it."""
    name = request.get("op")
    row = OPS.get(name) if isinstance(name, str) else None
    if row is None:
        raise ValueError(f"unknown control op {name!r}")
    for key in request:
        if key != "op" and key not in row.request:
            raise ValueError(f"control op {name!r} takes no key {key!r}")
    return row


async def dispatch(
    target: object, request: Dict[str, object]
) -> Dict[str, object]:
    """Run ``request`` on ``target._op_<name>``, held to its row."""
    row = row_of(request)
    name = request["op"]
    fields = {
        key: row.request[key](value)
        for key, value in request.items()
        if key != "op"
    }
    response: Dict[str, object] = await getattr(target, f"_op_{name}")(
        **fields
    )
    stray = sorted(set(response).symmetric_difference(row.response))
    if stray:
        fault = "lacks" if stray[0] in row.response else "has undeclared"
        raise ValueError(
            f"control op {name!r} response {fault} key {stray[0]!r}"
        )
    return response


class ControlServer:
    """A worker's control endpoint over ``target``'s ``_op_`` methods."""

    def __init__(
        self,
        target: object,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._target = target
        self.host = host
        self.port = port
        self._server: Optional["asyncio.Server"] = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve, host=self.host, port=self.port, limit=_LINE_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            line = await reader.readline()
            if not line:
                return
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
            except ValueError as exc:
                response: Dict[str, object] = {
                    "ok": False,
                    "error": f"bad request: {exc}",
                }
            else:
                try:
                    response = await dispatch(self._target, request)
                    response.setdefault("ok", True)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:
                    logger.warning(
                        "control handler raised",
                        extra=kv(op=request.get("op"), error=repr(exc)),
                    )
                    response = {"ok": False, "error": repr(exc)}
            writer.write(json.dumps(response).encode("utf-8") + b"\n")
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # client vanished mid-exchange
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


async def call(
    host: str,
    port: int,
    request: Dict[str, object],
    timeout: float,
) -> Dict[str, object]:
    """One control round-trip; raises on transport failure or deadline.

    The deadline uses ``asyncio.wait`` on a task (not ``wait_for``) for
    the same reason as :func:`repro.obs.serve.http_get`: on
    Python < 3.12 ``wait_for`` can swallow an external cancellation,
    and the launcher cancels in-flight calls when a worker dies.
    """

    async def _exchange() -> Dict[str, object]:
        reader, writer = await asyncio.open_connection(
            host, port, limit=_LINE_LIMIT
        )
        try:
            writer.write(json.dumps(request).encode("utf-8") + b"\n")
            await writer.drain()
            line = await reader.readline()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if not line:
            raise ConnectionError(
                f"control peer {host}:{port} closed without answering"
            )
        response = json.loads(line)
        if not isinstance(response, dict):
            raise ValueError("control response must be a JSON object")
        return response

    exchange = asyncio.get_running_loop().create_task(_exchange())

    async def _reap() -> None:
        exchange.cancel()
        try:
            await exchange
        except (
            asyncio.CancelledError,
            ConnectionError,
            OSError,
            ValueError,
        ):
            pass

    try:
        done, _pending = await asyncio.wait({exchange}, timeout=timeout)
    except asyncio.CancelledError:
        await _reap()
        raise
    if not done:
        await _reap()
        raise asyncio.TimeoutError(
            f"control call to {host}:{port} timed out "
            f"(op={request.get('op')!r})"
        )
    return exchange.result()
