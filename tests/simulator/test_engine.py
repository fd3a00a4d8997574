"""Unit tests for the discrete-event queue."""

import pytest

from repro.simulator.engine import EventQueue


class TestEventQueue:
    def test_events_fire_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule(2.0, lambda: fired.append("b"))
        queue.schedule(1.0, lambda: fired.append("a"))
        queue.schedule(3.0, lambda: fired.append("c"))
        queue.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self):
        queue = EventQueue()
        fired = []
        for name in "abc":
            queue.schedule(1.0, lambda n=name: fired.append(n))
        queue.run()
        assert fired == ["a", "b", "c"]

    def test_now_advances(self):
        queue = EventQueue()
        seen = []
        queue.schedule(5.0, lambda: seen.append(queue.now))
        queue.run()
        assert seen == [5.0]
        assert queue.now == 5.0

    def test_past_scheduling_rejected(self):
        queue = EventQueue()
        queue.schedule(5.0, lambda: None)
        queue.run()
        with pytest.raises(ValueError):
            queue.schedule(1.0, lambda: None)

    def test_run_until(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, lambda: fired.append(1))
        queue.schedule(10.0, lambda: fired.append(10))
        queue.run(until=5.0)
        assert fired == [1]
        assert queue.pending == 1

    def test_cascading_events(self):
        queue = EventQueue()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                queue.schedule(queue.now + 1.0, lambda: chain(depth + 1))

        queue.schedule(0.0, lambda: chain(0))
        assert queue.run() == 3.0
        assert fired == [0, 1, 2, 3]

    def test_reset(self):
        queue = EventQueue()
        queue.schedule(1.0, lambda: None)
        queue.reset()
        assert queue.pending == 0
        assert queue.now == 0.0
