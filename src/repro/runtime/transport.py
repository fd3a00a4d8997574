"""Framed asyncio transport: DVM frames over one TCP byte stream.

A :class:`FramedChannel` wraps an ``asyncio`` stream pair:

* the read side reassembles length-prefixed frames incrementally with
  :func:`repro.dvm.messages.decode_stream`, so messages split across TCP
  segments (or several messages coalesced into one segment) decode
  correctly;
* the write side is a FIFO queue drained by a single writer task, which
  preserves per-channel send order -- the in-order delivery the DVM
  protocol assumes of its TCP sessions (§5.2);
* truncated or garbage bytes surface as
  :class:`~repro.dvm.messages.MessageDecodeError` (counted in the device
  metrics); the stream past garbage cannot be trusted, so the owning
  session drops the connection and lets backoff-reconnect repair it.

Session control frames -- the handshake OPEN and KEEPALIVE heartbeats --
are scoped to :data:`SESSION_PLAN` (the empty plan id) to keep them
distinguishable from plan-scoped counting traffic in the metrics.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.dvm.messages import (
    KeepaliveMessage,
    Message,
    MessageDecodeError,
    OpenMessage,
    decode_stream,
    encode_message,
)
from repro.packetspace.predicate import PredicateFactory
from repro.runtime.metrics import DeviceMetrics

#: Plan id of session-level control frames (handshake OPEN, KEEPALIVE).
SESSION_PLAN = ""

_READ_CHUNK = 65536


def is_control_frame(message: Message) -> bool:
    """True for session-level frames that never reach the verifier."""
    return (
        isinstance(message, (OpenMessage, KeepaliveMessage))
        and message.plan_id == SESSION_PLAN
    )


class FrameAssembler:
    """Incremental reassembly of DVM frames from a byte stream."""

    def __init__(self, factory: PredicateFactory) -> None:
        self._factory = factory
        self._buffer = b""

    def feed(self, data: bytes) -> List[Message]:
        """Absorb ``data``; return every frame completed by it.

        Raises :class:`MessageDecodeError` on garbage; the buffer keeps
        any trailing partial frame otherwise.
        """
        messages, self._buffer = decode_stream(
            self._buffer + data if self._buffer else data, self._factory
        )
        return messages

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


class FramedChannel:
    """A bidirectional framed channel over one established TCP stream."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        factory: PredicateFactory,
        metrics: DeviceMetrics,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._assembler = FrameAssembler(factory)
        self._metrics = metrics
        self._send_queue: "asyncio.Queue[Tuple[bytes, bool]]" = asyncio.Queue()
        self._received: Deque[Message] = deque()
        self._writer_task: Optional["asyncio.Task[None]"] = None
        self._closing = False
        self.last_rx = time.monotonic()
        #: Termination-detection counters of this connection: counting
        #: frames queued here, and counting frames from the peer that the
        #: host has *finished handling* (bumped by ``DeviceHost._pump``).
        #: The link is balanced when each end's ``out`` equals the other
        #: end's ``done``; control frames are never counted.
        self.out = 0
        self.done = 0

    def start(self) -> None:
        self._writer_task = asyncio.get_running_loop().create_task(
            self._write_loop()
        )

    # -- sending -----------------------------------------------------------

    def send(self, message: Message) -> None:
        """Queue ``message``; the writer task transmits in FIFO order."""
        if self._closing:
            return
        control = is_control_frame(message)
        if not control:
            self.out += 1
        self._send_queue.put_nowait((encode_message(message), control))

    @property
    def pending_out(self) -> int:
        return self._send_queue.qsize()

    @property
    def closing(self) -> bool:
        """True once :meth:`close` or :meth:`abort` tore the stream down."""
        return self._closing

    async def _write_loop(self) -> None:
        try:
            while True:
                # Everything already queued goes out as one write + one
                # drain; accounting stays per frame.
                batch = [await self._send_queue.get()]
                while not self._send_queue.empty():
                    batch.append(self._send_queue.get_nowait())
                self._writer.write(b"".join(payload for payload, _ in batch))
                await self._writer.drain()
                for payload, control in batch:
                    if control:
                        self._metrics.control_out.inc()
                        self._metrics.control_bytes_out.inc(len(payload))
                    else:
                        self._metrics.messages_out.inc()
                        self._metrics.bytes_out.inc(len(payload))
        except (
            asyncio.CancelledError,
            ConnectionError,
            OSError,
        ):
            return

    # -- receiving ---------------------------------------------------------

    async def receive(self) -> Optional[Message]:
        """Next decoded frame, or ``None`` on EOF / connection loss.

        Raises :class:`MessageDecodeError` (after counting it) when the
        stream turns to garbage.
        """
        while not self._received:
            try:
                data = await self._reader.read(_READ_CHUNK)
            except (ConnectionError, OSError):
                return None
            if not data:
                return None
            self.last_rx = time.monotonic()
            before = self._assembler.pending_bytes
            try:
                messages = self._assembler.feed(data)
            except MessageDecodeError:
                self._metrics.decode_errors.inc()
                raise
            self._received.extend(messages)
            consumed = before + len(data) - self._assembler.pending_bytes
            counting = sum(1 for m in messages if not is_control_frame(m))
            # Byte attribution is per batch: control frames are tiny and
            # sparse, so a mixed batch counts as counting traffic.
            if counting:
                self._metrics.messages_in.inc(counting)
                self._metrics.control_in.inc(len(messages) - counting)
                self._metrics.bytes_in.inc(consumed)
            else:
                self._metrics.control_in.inc(len(messages))
                self._metrics.control_bytes_in.inc(consumed)
        return self._received.popleft()

    # -- teardown ----------------------------------------------------------

    async def close(self) -> None:
        self._closing = True
        if self._writer_task is not None:
            self._writer_task.cancel()
            try:
                await self._writer_task
            except asyncio.CancelledError:
                pass
            self._writer_task = None
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    def abort(self) -> None:
        """Tear the TCP connection down immediately (no FIN handshake)."""
        self._closing = True
        transport = self._writer.transport
        if transport is not None:
            transport.abort()
