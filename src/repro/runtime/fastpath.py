"""In-process fast path: paired in-memory byte streams for co-located
agents.

In fleet mode (:mod:`repro.fleet`) one worker process hosts many device
agents on a shared event loop.  DVM sessions between two agents of the
*same* worker do not need a kernel socket at all: :func:`memory_pair`
builds two connected stream endpoints whose write side feeds the peer's
:class:`asyncio.StreamReader` directly on the loop.

Fidelity is preserved byte for byte: the :class:`~repro.runtime
.transport.FramedChannel` on each end still runs
:func:`~repro.dvm.messages.encode_message` /
:func:`~repro.dvm.messages.decode_stream` over the byte stream, so the
frames crossing a memory pair are identical to the frames that would
cross a TCP connection -- the wire-protocol checkers, the traffic
metrics (frame and byte counters), and the runtime-vs-simulator parity
benchmarks all hold unchanged.  Only the kernel round trip is skipped.

The writer endpoint implements exactly the :class:`asyncio.StreamWriter`
surface the transport layer touches (``write`` / ``drain`` / ``close`` /
``wait_closed`` and ``transport.abort``); :func:`memory_pair` casts it
accordingly so session and channel code cannot tell the difference.
"""

from __future__ import annotations

import asyncio
from typing import Optional, Tuple, cast

__all__ = ["memory_pair", "MemoryWriter"]

#: StreamReader buffer limit for memory endpoints.  Matches the default
#: asyncio server limit so fast-path flow control mirrors TCP's.
_READER_LIMIT = 2 ** 16


class _MemoryTransport:
    """The ``writer.transport`` of a memory endpoint (abort support)."""

    def __init__(self, writer: "MemoryWriter") -> None:
        self._writer = writer

    def abort(self) -> None:
        """Drop the pair immediately -- both ends see EOF, like a RST."""
        self._writer._abort()


class MemoryWriter:
    """Write end of one direction of an in-memory stream pair.

    Bytes written here are fed straight into the peer endpoint's
    :class:`asyncio.StreamReader`.  Closing (or aborting) either end
    EOFs both directions, mirroring how a dropped TCP connection takes
    down both halves of the stream.
    """

    def __init__(self, peer_reader: asyncio.StreamReader) -> None:
        self._peer_reader = peer_reader
        self.closed = False
        #: The opposite-direction writer; set by :func:`memory_pair` so a
        #: close tears down the whole pair (both directions), like TCP.
        self.other: Optional["MemoryWriter"] = None
        self.transport = _MemoryTransport(self)

    # -- StreamWriter surface used by the transport layer ------------------

    def write(self, data: bytes) -> None:
        if self.closed:
            raise ConnectionResetError("memory channel closed")
        self._peer_reader.feed_data(data)

    async def drain(self) -> None:
        if self.closed:
            raise ConnectionResetError("memory channel closed")
        # Yield once so a tight write loop cannot starve the peer's read
        # task on the shared loop (TCP's drain awaits the kernel; here
        # the hand-off point is the scheduler itself).
        await asyncio.sleep(0)

    def close(self) -> None:
        self._abort()

    async def wait_closed(self) -> None:
        return None

    # -- teardown ----------------------------------------------------------

    def _abort(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._peer_reader.feed_eof()
        if self.other is not None:
            self.other._abort()


def memory_pair() -> Tuple[
    Tuple[asyncio.StreamReader, asyncio.StreamWriter],
    Tuple[asyncio.StreamReader, asyncio.StreamWriter],
]:
    """Two connected ``(reader, writer)`` stream endpoints in memory.

    Everything endpoint A writes, endpoint B reads, and vice versa.
    Closing or aborting either writer EOFs both directions.  The writers
    are :class:`MemoryWriter` instances cast to ``StreamWriter`` -- they
    implement the full surface the runtime transport uses.
    """
    reader_a = asyncio.StreamReader(limit=_READER_LIMIT)
    reader_b = asyncio.StreamReader(limit=_READER_LIMIT)
    writer_a = MemoryWriter(reader_b)  # A writes -> B reads
    writer_b = MemoryWriter(reader_a)  # B writes -> A reads
    writer_a.other = writer_b
    writer_b.other = writer_a
    return (
        (reader_a, cast(asyncio.StreamWriter, writer_a)),
        (reader_b, cast(asyncio.StreamWriter, writer_b)),
    )
