"""Peer sessions: handshake, dead-peer detection, backoff-reconnect."""

import asyncio
import random

import pytest

from repro.dvm.messages import OpenMessage, UpdateMessage
from repro.obs.flight import FlightRecorder
from repro.runtime.connection import (
    BackoffPolicy,
    PeerSession,
    SessionEvents,
)
from repro.runtime.metrics import DeviceMetrics
from repro.runtime.transport import SESSION_PLAN, FramedChannel


class Recorder:
    """Collects session callbacks for assertions."""

    def __init__(self):
        self.messages = []
        self.established = 0
        self.peer_down = 0

    def events(self):
        return SessionEvents(
            on_message=lambda peer, m, channel: self.messages.append((peer, m)),
            on_established=lambda peer: self._established(),
            on_peer_down=lambda peer: self._down(),
            link_up=lambda peer: True,
        )

    def _established(self):
        self.established += 1

    def _down(self):
        self.peer_down += 1


def make_session(
    device, peer, factory, recorder, port_ref, **overrides
):
    options = dict(
        active=True,
        peer_address=lambda: ("127.0.0.1", port_ref[0]),
        keepalive_interval=0.05,
        hold_multiplier=3.0,
        backoff=BackoffPolicy(initial=0.01, max_delay=0.05),
        rng=random.Random("test"),
    )
    options.update(overrides)
    return PeerSession(
        device,
        peer,
        factory,
        DeviceMetrics(device),
        recorder.events(),
        **options,
    )


class ScriptedPeer:
    """A hand-rolled remote endpoint: accepts, optionally handshakes."""

    def __init__(self, factory, device="remote", handshake=True):
        self.factory = factory
        self.device = device
        self.handshake = handshake
        self.server = None
        self.channels = []
        self.accepts = 0

    async def start(self):
        self.server = await asyncio.start_server(
            self._accept, host="127.0.0.1", port=0
        )
        return self.server.sockets[0].getsockname()[1]

    async def _accept(self, reader, writer):
        self.accepts += 1
        channel = FramedChannel(
            reader, writer, self.factory, DeviceMetrics(self.device)
        )
        channel.start()
        self.channels.append(channel)
        if self.handshake:
            channel.send(
                OpenMessage(plan_id=SESSION_PLAN, device=self.device)
            )

    async def stop(self):
        for channel in self.channels:
            await channel.close()
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()


class TestBackoffPolicy:
    def test_delays_grow_and_cap(self):
        policy = BackoffPolicy(
            initial=0.05, multiplier=2.0, max_delay=1.0, jitter=0.0
        )
        rng = random.Random(1)
        delays = [policy.delay(attempt, rng) for attempt in range(8)]
        assert delays[:4] == [0.05, 0.1, 0.2, 0.4]
        assert delays[-1] == 1.0
        assert delays == sorted(delays)

    def test_jitter_is_deterministic_for_a_seed(self):
        policy = BackoffPolicy()
        a = [policy.delay(i, random.Random("7:A:B")) for i in range(6)]
        b = [policy.delay(i, random.Random("7:A:B")) for i in range(6)]
        c = [policy.delay(i, random.Random("7:B:A")) for i in range(6)]
        assert a == b
        assert a != c  # different links jitter differently

    def test_jitter_only_shrinks(self):
        policy = BackoffPolicy(initial=0.1, jitter=0.5)
        rng = random.Random(3)
        for attempt in range(6):
            base = min(policy.max_delay, 0.1 * 2 ** attempt)
            delay = policy.delay(attempt, rng)
            assert base / 2 <= delay <= base


class TestHandshake:
    def test_establishes_against_scripted_peer(self, run, dst_factory):
        async def scenario():
            remote = ScriptedPeer(dst_factory)
            port = [await remote.start()]
            recorder = Recorder()
            session = make_session(
                "local", "remote", dst_factory, recorder, port
            )
            session.start()
            await asyncio.wait_for(session.established.wait(), 5.0)
            assert recorder.established == 1
            assert session.metrics.sessions_established.value == 1
            await session.stop()
            await remote.stop()

        run(scenario())

    def test_wrong_identity_is_rejected(self, run, dst_factory):
        async def scenario():
            remote = ScriptedPeer(dst_factory, device="impostor")
            port = [await remote.start()]
            recorder = Recorder()
            session = make_session(
                "local", "remote", dst_factory, recorder, port
            )
            session.start()
            await asyncio.sleep(0.2)
            assert not session.is_established
            assert remote.accepts >= 2  # it keeps retrying
            await session.stop()
            await remote.stop()

        run(scenario())

    def test_counting_frames_reach_on_message(self, run, dst_factory):
        async def scenario():
            remote = ScriptedPeer(dst_factory)
            port = [await remote.start()]
            recorder = Recorder()
            session = make_session(
                "local", "remote", dst_factory, recorder, port
            )
            session.start()
            await asyncio.wait_for(session.established.wait(), 5.0)
            update = UpdateMessage(
                plan_id="p",
                up_node="u",
                down_node="v",
                withdrawn=(),
                results=(),
            )
            remote.channels[-1].send(update)
            deadline = asyncio.get_running_loop().time() + 5.0
            while not recorder.messages:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.01)
            assert recorder.messages == [("remote", update)]
            await session.stop()
            await remote.stop()

        run(scenario())


class TestDeadPeerDetection:
    def test_silent_peer_is_declared_down(self, run, dst_factory):
        """A peer that handshakes then never speaks trips the watchdog."""

        async def scenario():
            remote = ScriptedPeer(dst_factory)  # sends no keepalives
            port = [await remote.start()]
            recorder = Recorder()
            session = make_session(
                "local", "remote", dst_factory, recorder, port,
                keepalive_interval=0.04, hold_multiplier=2.0,
            )
            session.start()
            await asyncio.wait_for(session.established.wait(), 5.0)
            deadline = asyncio.get_running_loop().time() + 5.0
            while recorder.peer_down == 0:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.01)
            assert session.metrics.peer_down_events.value >= 1
            await session.stop()
            await remote.stop()

        run(scenario())

    def test_reconnects_after_server_restart(self, run, dst_factory):
        """Dial fails while the peer is away; backoff retries win later."""

        async def scenario():
            recorder = Recorder()
            port = [1]  # nothing listens on port 1: dials fail
            session = make_session(
                "local", "remote", dst_factory, recorder, port
            )
            session.start()
            await asyncio.sleep(0.1)
            assert not session.is_established
            remote = ScriptedPeer(dst_factory)
            port[0] = await remote.start()
            await asyncio.wait_for(session.established.wait(), 5.0)
            assert recorder.established == 1
            await session.stop()
            await remote.stop()

        run(scenario())

    def test_forced_disconnect_fires_peer_down_then_reconnects(
        self, run, dst_factory
    ):
        async def scenario():
            remote = ScriptedPeer(dst_factory)
            port = [await remote.start()]
            recorder = Recorder()
            session = make_session(
                "local", "remote", dst_factory, recorder, port
            )
            session.start()
            await asyncio.wait_for(session.established.wait(), 5.0)
            session.disconnect(hold_down=0.05)
            assert not session.is_established  # cleared synchronously
            await asyncio.wait_for(session.established.wait(), 5.0)
            assert recorder.peer_down == 1
            assert recorder.established == 2
            assert session.metrics.reconnects.value == 1
            await session.stop()
            await remote.stop()

        run(scenario())

    def test_stop_racing_the_loss_path_takes_no_edge_out_of_draining(
        self, run, dst_factory
    ):
        """``stop()`` lands while the loss path reaps the dead channel's
        writer task, which absorbs the dial task's cancellation.  The
        dial loop used to carry on and fire ``redial`` out of DRAINING,
        stamping a bogus ``redial/DIALING`` into every such shutdown."""

        async def scenario():
            remote = ScriptedPeer(dst_factory)
            port = [await remote.start()]
            flight = FlightRecorder("local")
            session = make_session(
                "local", "remote", dst_factory, Recorder(), port,
                flight=flight,
            )
            session.start()
            await asyncio.wait_for(session.established.wait(), 5.0)
            channel = session._channel
            real_close = channel.close
            stops = []

            async def close_then_stop():
                # Queued ahead of the writer task's wake-up, so stop()
                # runs while real_close() is awaiting that task.
                stops.append(asyncio.ensure_future(session.stop()))
                await real_close()

            channel.close = close_then_stop
            await remote.stop()  # EOF: _serve's loss path closes the channel
            deadline = asyncio.get_running_loop().time() + 5.0
            while not stops:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.01)
            await asyncio.wait_for(stops[0], 5.0)
            return [
                f"{event['event']}/{event['state']}"
                for event in flight.dump()["events"]
                if event["etype"] == "session"
            ]

        assert run(scenario()) == [
            "start/DIALING",
            "connect_ok/OPEN_SENT",
            "peer_open/ESTABLISHED",
            "stop/DRAINING",
            "drained/CLOSED",
        ]


class TestSessionTable:
    def test_fire_raises_on_an_undeclared_edge(self):
        session = PeerSession.__new__(PeerSession)
        session.state = "DRAINING"
        with pytest.raises(KeyError, match="DRAINING.*redial"):
            session._fire("redial")
        assert session.state == "DRAINING"
