"""Discrete-event queue.

Minimal and deterministic: events fire in (time, sequence) order, where
the sequence number breaks ties by scheduling order.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple


class EventQueue:
    """A time-ordered queue of zero-argument callbacks."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        self.now = 0.0

    def schedule(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute simulation ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past ({time} < now {self.now})"
            )
        heapq.heappush(self._heap, (time, next(self._counter), callback))

    @property
    def pending(self) -> int:
        return len(self._heap)

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queue drains (or ``until`` is reached).

        Returns the simulation time of the last processed event.
        """
        last = self.now
        while self._heap:
            time, _, callback = self._heap[0]
            if until is not None and time > until:
                break
            heapq.heappop(self._heap)
            self.now = time
            callback()
            last = self.now
        return last

    def reset(self) -> None:
        self._heap.clear()
        self.now = 0.0
