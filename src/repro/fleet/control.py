"""JSON-lines control channel between the fleet launcher and workers.

The launcher keeps one connection open per worker
(:class:`ControlChannel`) and the worker's :class:`ControlServer`
answers any number of requests on it, in order: the client writes one
JSON object on one line, the server answers with one JSON object on one
line.  One request is in flight per connection.  The channel carries
orchestration (inject/settle/stop) and small status documents, never
DVM traffic.

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
from typing import Any, Callable, Dict, Mapping, Optional, Set, Tuple

from repro.obs.log import get_logger, kv

__all__ = [
    "ControlChannel", "ControlServer", "OPS", "Op", "dispatch", "row_of"
]

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


#: What a settle wave answers: ``status``, and each injection, whose
#: answer is the first wave of its operation.
_WAVE = ("worker", "settled_local", "links", "seconds")
#: What every injection takes besides its own keys.
_INJECT = {"label": str, "wait": float}

#: Every control op.  Liveness probes answer from memory (2 s); the
#: injections run verifier work before answering (60 s).
OPS: Dict[str, Op] = {
    "ping": Op({}, ("worker", "ready", "devices"), 2.0),
    "status": Op({"wait": float}, _WAVE, 30.0),
    "install": Op(_INJECT, _WAVE, 60.0),
    "update": Op({**_INJECT, "index": int, "count": int}, _WAVE, 60.0),
    "link": Op({**_INJECT, "a": str, "b": str, "up": bool}, _WAVE, 60.0),
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
        self._writers: Set[asyncio.StreamWriter] = set()

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve, host=self.host, port=self.port, limit=_LINE_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop listening and close every accepted connection (from
        Python 3.12 ``wait_closed`` waits for them)."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
            for writer in self._writers:
                writer.close()
            await server.wait_closed()

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            # A connection accepted while stop() ran is closed here.
            while self._server is not None:
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
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


class ControlChannel:
    """The launcher's persistent control connection to one worker.

    The connection opens on the first call and stays open.  A call
    takes it, so one request is in flight per connection, and puts it
    back once it read its own answer.  A call that fails, times out or
    is cancelled closes its connection instead: a late answer can never
    be read as the next call's, and the next call opens a fresh one.  A
    request is never resent (``update`` is not idempotent).
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._idle: Optional[
            Tuple[asyncio.StreamReader, asyncio.StreamWriter]
        ] = None

    async def call(
        self, request: Dict[str, object], timeout: float
    ) -> Dict[str, object]:
        """One round trip; raises on transport failure or deadline.

        The deadline uses ``asyncio.wait`` on a task (not ``wait_for``)
        for the same reason as :func:`repro.obs.serve.http_get`: on
        Python < 3.12 ``wait_for`` can swallow an external cancellation,
        and the launcher cancels in-flight calls when a worker dies.
        """
        exchange = asyncio.get_running_loop().create_task(
            self._exchange(request)
        )
        try:
            await asyncio.wait({exchange}, timeout=timeout)
        finally:
            if not exchange.done():
                exchange.cancel()  # its finally closes the connection
                await asyncio.wait({exchange})
        if exchange.cancelled():
            raise asyncio.TimeoutError(
                f"control call to {self.host}:{self.port} timed out "
                f"(op={request.get('op')!r})"
            )
        return exchange.result()

    async def _exchange(self, request: Dict[str, object]) -> Dict[str, object]:
        stream, self._idle = self._idle, None
        if stream is None or stream[0].at_eof() or stream[1].is_closing():
            if stream is not None:
                stream[1].close()  # the worker dropped it while idle
            stream = await asyncio.open_connection(
                self.host, self.port, limit=_LINE_LIMIT
            )
        reader, writer = stream
        kept = False
        try:
            writer.write(json.dumps(request).encode("utf-8") + b"\n")
            await writer.drain()
            line = await reader.readline()
            if not line:
                raise ConnectionError(
                    f"control peer {self.host}:{self.port} closed without "
                    "answering"
                )
            response = json.loads(line)
            if not isinstance(response, dict):
                raise ValueError("control response must be a JSON object")
            kept = self._idle is None
            if kept:
                self._idle = stream
            return response
        finally:
            if not kept:
                writer.close()

    def close(self) -> None:
        """Close the idle connection, if any."""
        stream, self._idle = self._idle, None
        if stream is not None:
            stream[1].close()
