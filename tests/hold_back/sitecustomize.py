"""Fault injection: hold one counting frame back inside a write path.

While the flag file exists, the next counting frame written on a real
TCP channel (in-memory fast-path channels are left alone) is held for
``HOLD_SECONDS`` *after* it left the channel's send queue, together with
everything queued behind it, and the flag is consumed -- one stall per
arming, process- and fleet-wide.  That is the in-process stand-in for a
frame parked in a kernel buffer: no queue shows it, which is exactly
what a silence-based convergence detector cannot see.

``tests/runtime/test_exact_convergence.py`` calls :func:`install`
directly.  Fleet *worker processes* get it through this file's name:
the fleet test puts this directory on their ``PYTHONPATH`` and names
the flag in ``$REPRO_TEST_HOLD_FLAG``, and the interpreter imports
``sitecustomize`` at start-up.
"""

import asyncio
import os

#: Longer than the old quiet windows (2 rounds x 50 ms, runtime and fleet).
HOLD_SECONDS = 0.3


def install(flag):
    """Patch ``FramedChannel``; returns the function that undoes it."""
    from repro.runtime.fastpath import MemoryWriter
    from repro.runtime.transport import FramedChannel

    class HoldQueue(asyncio.Queue):
        async def get(self):
            first = await super().get()
            if first[1] or not os.path.exists(flag):
                return first
            try:
                os.remove(flag)
            except FileNotFoundError:
                return first  # another process took this arming
            behind = []
            while not self.empty():
                behind.append(self.get_nowait())
            await asyncio.sleep(HOLD_SECONDS)
            # Back to the head, ahead of anything queued meanwhile.
            self._queue.extendleft(reversed(behind))
            return first

    original = FramedChannel.__init__

    def init(self, reader, writer, factory, metrics):
        original(self, reader, writer, factory, metrics)
        if not isinstance(writer, MemoryWriter):
            self._send_queue = HoldQueue()

    FramedChannel.__init__ = init

    def uninstall():
        FramedChannel.__init__ = original

    return uninstall


if os.environ.get("REPRO_TEST_HOLD_FLAG"):
    install(os.environ["REPRO_TEST_HOLD_FLAG"])
