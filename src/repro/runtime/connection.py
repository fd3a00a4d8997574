"""DVM session management over real TCP connections.

One :class:`PeerSession` runs per topology link endpoint.  To avoid
simultaneous-connect collisions the lexicographically smaller endpoint
dials (BGP-style collision avoidance); the larger endpoint accepts and
adopts the connection after reading the peer's session OPEN.

Session lifecycle:

* **handshake** -- each side sends ``OpenMessage(plan_id="", device=...)``
  on connect; the session is established once the peer's OPEN arrives.
  On establishment the host re-OPENs every installed plan toward the
  peer, which triggers the verifier's full-refresh path
  (:meth:`OnDeviceVerifier._on_open`), so reconnects reconverge without
  any extra protocol machinery.
* **keepalive** -- heartbeats every ``keepalive_interval``; a watchdog
  declares the peer dead after ``hold_multiplier`` silent intervals and
  aborts the connection.
* **loss** -- EOF, reset, decode garbage, or keepalive timeout all land
  in one loss path: the host's ``on_peer_down`` fires (withdrawing the
  peer's counting state) and, on the dialing side, reconnection retries
  with exponential backoff plus jitter.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from typing import Awaitable, Callable, Dict, Optional, Tuple

from repro.dvm.messages import Message, MessageDecodeError, OpenMessage
from repro.obs.flight import NULL_RECORDER, FlightRecorder
from repro.obs.log import get_logger, kv
from repro.packetspace.predicate import PredicateFactory
from repro.runtime.metrics import DeviceMetrics
from repro.runtime.transport import (
    SESSION_PLAN,
    FramedChannel,
    is_control_frame,
)

logger = get_logger("runtime.connection")

#: Opens the byte stream toward the peer.  The default dials TCP to
#: ``peer_address()``; fleet workers substitute an in-process fast path
#: (:func:`repro.runtime.fastpath.memory_pair`) for co-located peers.
Connector = Callable[
    [], Awaitable[Tuple[asyncio.StreamReader, asyncio.StreamWriter]]
]


# ---------------------------------------------------------------------------
# Declarative session FSM
#
# The table below *is* the PeerSession lifecycle: the only way the
# session changes state is ``PeerSession._fire(event)``, which looks the
# edge up here, so an edge the table does not declare is a ``KeyError``
# in the first test that takes it.

#: Session lifecycle states.
ST_CLOSED = "CLOSED"  # no connection; passive side idles here awaiting adoption
ST_DIALING = "DIALING"  # active side attempting TCP connect (with backoff)
ST_OPEN_SENT = "OPEN_SENT"  # connection up, our OPEN sent, peer's OPEN awaited
ST_ESTABLISHED = "ESTABLISHED"  # both OPENs exchanged; counting traffic flows
ST_RECONNECTING = "RECONNECTING"  # session lost; loss handling ran, repair pending
ST_DRAINING = "DRAINING"  # stop() tearing tasks and the channel down

SESSION_STATES = (
    ST_CLOSED,
    ST_DIALING,
    ST_OPEN_SENT,
    ST_ESTABLISHED,
    ST_RECONNECTING,
    ST_DRAINING,
)

#: ``(state, event) -> next state``.  Events are the protocol-visible
#: stimuli; the ``rx_*`` events are the frame kinds of the wire schema
#: (:attr:`repro.dvm.messages.Row.event`).  The ``rx_*`` self-loops
#: document frames absorbed without a state change; nothing fires them.
SESSION_TRANSITIONS: Dict[Tuple[str, str], str] = {
    # establishment -- active (dialing) side
    (ST_CLOSED, "start"): ST_DIALING,
    (ST_DIALING, "connect_fail"): ST_DIALING,  # backoff retry
    (ST_DIALING, "connect_ok"): ST_OPEN_SENT,
    # establishment -- passive side (adopts an accepted connection
    # whose OPEN named us; its own OPEN is sent during adoption)
    (ST_CLOSED, "adopt"): ST_OPEN_SENT,
    # handshake completion / failure
    (ST_OPEN_SENT, "peer_open"): ST_ESTABLISHED,
    (ST_OPEN_SENT, "open_timeout"): ST_RECONNECTING,
    # established: every DVM frame kind has a handler event here
    # (tests/dvm/test_wire_schema.py); all are absorbed without leaving
    # the state
    (ST_ESTABLISHED, "rx_open"): ST_ESTABLISHED,  # plan refresh / dup OPEN
    (ST_ESTABLISHED, "rx_keepalive"): ST_ESTABLISHED,
    (ST_ESTABLISHED, "rx_update"): ST_ESTABLISHED,
    (ST_ESTABLISHED, "rx_subscribe"): ST_ESTABLISHED,
    (ST_ESTABLISHED, "rx_linkstate"): ST_ESTABLISHED,
    # loss: EOF / reset / decode garbage, or the keepalive watchdog
    (ST_ESTABLISHED, "conn_lost"): ST_RECONNECTING,
    (ST_ESTABLISHED, "hold_expired"): ST_RECONNECTING,
    # repair: the dialing side redials; the passive side waits to be
    # re-adopted when the peer's redial lands
    (ST_RECONNECTING, "redial"): ST_DIALING,
    (ST_RECONNECTING, "adopt"): ST_OPEN_SENT,
    # administrative shutdown (excluded from liveness exploration)
    (ST_CLOSED, "stop"): ST_DRAINING,
    (ST_DIALING, "stop"): ST_DRAINING,
    (ST_OPEN_SENT, "stop"): ST_DRAINING,
    (ST_ESTABLISHED, "stop"): ST_DRAINING,
    (ST_RECONNECTING, "stop"): ST_DRAINING,
    (ST_DRAINING, "drained"): ST_CLOSED,
}


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with decorrelating jitter for redials."""

    initial: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5  # fraction of the delay randomized away

    def delay(self, attempt: int, rng: random.Random) -> float:
        base = min(self.max_delay, self.initial * self.multiplier ** attempt)
        return base * (1.0 - self.jitter * rng.random())


class SessionEvents:
    """Host-side callbacks a session drives (see ``cluster.DeviceHost``)."""

    def __init__(
        self,
        on_message: Callable[[str, Message, FramedChannel], None],
        on_established: Callable[[str], None],
        on_peer_down: Callable[[str], None],
        link_up: Callable[[str], bool],
        stamp: Callable[[str, Message], int] = lambda peer, message: 0,
    ) -> None:
        self.on_message = on_message
        self.on_established = on_established
        self.on_peer_down = on_peer_down
        self.link_up = link_up
        #: ``DeviceAgent.stamp``: clocks a frame that is leaving (a bare
        #: session, as in tests, sends its frames unstamped).
        self.stamp = stamp


class PeerSession:
    """The DVM session from ``device`` to neighbor ``peer``."""

    def __init__(
        self,
        device: str,
        peer: str,
        factory: PredicateFactory,
        metrics: DeviceMetrics,
        events: SessionEvents,
        *,
        active: bool,
        peer_address: Callable[[], Tuple[str, int]],
        keepalive_interval: float = 0.5,
        hold_multiplier: float = 3.0,
        backoff: Optional[BackoffPolicy] = None,
        rng: Optional[random.Random] = None,
        connector: Optional[Connector] = None,
        flight: Optional[FlightRecorder] = None,
    ) -> None:
        self.device = device
        self.peer = peer
        self.factory = factory
        self.metrics = metrics
        self.events = events
        # Device-wide recorder shared across the host's sessions; the
        # session records its FSM edges there.
        self.flight = flight if flight is not None else NULL_RECORDER
        #: Flight seq of the last FSM edge (what a peer loss chains to).
        self.last_edge: Optional[int] = None
        self.active = active
        self.peer_address = peer_address
        self.connector = connector
        self.keepalive_interval = keepalive_interval
        self.hold_time = keepalive_interval * hold_multiplier
        self.backoff = backoff or BackoffPolicy()
        self.rng = rng or random.Random()
        self.established = asyncio.Event()
        self.state = ST_CLOSED
        self._channel: Optional[FramedChannel] = None
        self._serve_task: Optional["asyncio.Task[None]"] = None
        self._dial_task: Optional["asyncio.Task[None]"] = None
        self._stopped = False
        self._suspend_until = 0.0
        self._ever_established = False
        self._hold_expired = False

    # -- lifecycle ---------------------------------------------------------

    def _fire(self, event: str) -> None:
        """Take the declared edge ``(self.state, event)``.

        An edge missing from :data:`SESSION_TRANSITIONS` raises
        ``KeyError``: declare it there rather than special-casing it
        here.
        """
        self.state = SESSION_TRANSITIONS[(self.state, event)]
        if self.flight.enabled:
            self.last_edge = self.flight.record(
                "session", event=event, state=self.state, peer=self.peer
            )

    def start(self) -> None:
        """Begin dialing (active side).  Passive sessions wait to adopt."""
        if self.active:
            self._fire("start")
            self._dial_task = asyncio.get_running_loop().create_task(
                self._dial_loop()
            )

    async def stop(self) -> None:
        self._stopped = True
        self._fire("stop")
        for task in (self._dial_task, self._serve_task):
            if task is not None:
                task.cancel()
        for task in (self._dial_task, self._serve_task):
            if task is not None:
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        self._dial_task = None
        self._serve_task = None
        if self._channel is not None:
            await self._channel.close()
            self._channel = None
        self.established.clear()
        self._fire("drained")

    @property
    def is_established(self) -> bool:
        return self.established.is_set()

    @property
    def held_down(self) -> bool:
        """Whether a ``disconnect(hold_down)`` still suppresses redials."""
        return time.monotonic() < self._suspend_until

    @property
    def pending_out(self) -> int:
        return self._channel.pending_out if self._channel else 0

    @property
    def live_channel(self) -> Optional[FramedChannel]:
        """The connection counting frames can still cross, else None.

        ``None`` in ESTABLISHED means *transitional*: ``disconnect()``,
        the watchdog or the read loop tore the connection down but the
        loss handling (``on_peer_down``) has not run yet.
        """
        channel = self._channel
        if (
            self.state == ST_ESTABLISHED
            and channel is not None
            and not channel.closing
        ):
            return channel
        return None

    def last_rx_age(self) -> Optional[float]:
        """Seconds since the last frame from the peer (None when down).

        Keepalives refresh it too, so on a healthy idle session this
        stays below the hold time -- /healthz exposes it as the peer
        liveness signal.
        """
        if self._channel is None or not self.is_established:
            return None
        return max(0.0, time.monotonic() - self._channel.last_rx)

    # -- sending -----------------------------------------------------------

    def send(self, message: Message) -> bool:
        """Queue ``message``; False when the session is down (dropped)."""
        if self._channel is None or not self.is_established:
            return False
        # Messages fan out to several peers as one shared instance;
        # FramedChannel.send encodes synchronously, so re-stamping per
        # peer is safe.
        self.events.stamp(self.peer, message)
        self._channel.send(message)
        return True

    # -- fault injection ---------------------------------------------------

    def disconnect(self, hold_down: float = 0.0) -> None:
        """Forcibly drop the TCP connection (testbed fault injection).

        ``hold_down`` suppresses redialing for that many seconds so
        tests can observe the degraded state before backoff-reconnect
        repairs the session.
        """
        self._suspend_until = max(
            self._suspend_until, time.monotonic() + hold_down
        )
        if self._channel is not None:
            # Clear synchronously so a waiter entering established.wait()
            # right after this call blocks until the *re*-connect, not the
            # connection being torn down (the abort only reaches _serve's
            # read loop on a later loop iteration).
            self.established.clear()
            self._channel.abort()

    # -- active side: dialing ----------------------------------------------

    async def _dial_loop(self) -> None:
        attempt = 0
        while not self._stopped:
            now = time.monotonic()
            if now < self._suspend_until or not self.events.link_up(
                self.peer
            ):
                await asyncio.sleep(min(0.05, self.keepalive_interval / 2))
                continue
            try:
                if self.connector is not None:
                    reader, writer = await self.connector()
                else:
                    host, port = self.peer_address()
                    reader, writer = await asyncio.open_connection(
                        host, port
                    )
            except (ConnectionError, OSError):
                self._fire("connect_fail")
                await asyncio.sleep(self.backoff.delay(attempt, self.rng))
                attempt += 1
                continue
            self._fire("connect_ok")
            channel = FramedChannel(
                reader, writer, self.factory, self.metrics
            )
            channel.start()
            channel.send(
                OpenMessage(plan_id=SESSION_PLAN, device=self.device)
            )
            opened = await self._await_peer_open(channel)
            # stop() cancels this task, but a cancellation landing while
            # an await below is already completing is absorbed
            # (``FramedChannel.close`` forwards it to the writer task it
            # is reaping, ``wait_for`` drops it on a finished future).
            # From DRAINING on the session is stop()'s: re-check after
            # those awaits and fire nothing.
            if self._stopped:
                await channel.close()
                return
            if opened:
                attempt = 0
                await self._serve(channel)
            else:
                self._fire("open_timeout")
                await channel.close()
                await asyncio.sleep(self.backoff.delay(attempt, self.rng))
                attempt += 1
            if self._stopped:
                return
            self._fire("redial")

    async def _await_peer_open(self, channel: FramedChannel) -> bool:
        """Wait for the peer's session OPEN (handshake completion)."""
        try:
            message = await asyncio.wait_for(
                channel.receive(), timeout=self.hold_time
            )
        except (asyncio.TimeoutError, MessageDecodeError):
            return False
        return (
            isinstance(message, OpenMessage)
            and message.plan_id == SESSION_PLAN
            and message.device == self.peer
        )

    # -- passive side: adoption --------------------------------------------

    async def adopt(self, channel: FramedChannel) -> None:
        """Take over an accepted connection whose OPEN named our peer."""
        if self._serve_task is not None:
            # A stale session is still around; replace it.
            self._serve_task.cancel()
            try:
                await self._serve_task
            except asyncio.CancelledError:
                pass
            self._serve_task = None
        if self._stopped or not self.events.link_up(self.peer):
            await channel.close()
            return
        self._fire("adopt")
        channel.send(OpenMessage(plan_id=SESSION_PLAN, device=self.device))
        self._serve_task = asyncio.get_running_loop().create_task(
            self._serve(channel)
        )

    # -- established session loop ------------------------------------------

    async def _serve(self, channel: FramedChannel) -> None:
        """Pump frames until the connection dies; fire loss handling."""
        self._channel = channel
        channel.last_rx = time.monotonic()
        self._hold_expired = False
        self._fire("peer_open")
        reconnect = self._ever_established
        if reconnect:
            self.metrics.reconnects.inc()
        self._ever_established = True
        self.metrics.sessions_established.inc()
        logger.debug(
            "session established",
            extra=kv(device=self.device, peer=self.peer, reconnect=reconnect),
        )
        self.established.set()
        self.events.on_established(self.peer)
        keepalive = asyncio.get_running_loop().create_task(
            self._keepalive_loop(channel)
        )
        watchdog = asyncio.get_running_loop().create_task(
            self._watchdog_loop(channel)
        )
        try:
            while True:
                try:
                    message = await channel.receive()
                except MessageDecodeError:
                    break  # garbage on the wire: drop the connection
                if message is None:
                    break  # EOF / reset
                if is_control_frame(message):
                    continue  # keepalive or duplicate handshake OPEN
                self.events.on_message(self.peer, message, channel)
        except asyncio.CancelledError:
            raise
        finally:
            keepalive.cancel()
            watchdog.cancel()
            # _serve always established at entry, so its exit is always a
            # session loss (disconnect() may already have cleared the
            # event; peer-down handling must still run).
            self.established.clear()
            if self._channel is channel:
                self._channel = None
            await channel.close()
            if not self._stopped:
                if self._hold_expired:
                    self._fire("hold_expired")
                else:
                    self._fire("conn_lost")
                self.metrics.peer_down_events.inc()
                logger.debug(
                    "session lost",
                    extra=kv(device=self.device, peer=self.peer),
                )
                self.events.on_peer_down(self.peer)

    async def _keepalive_loop(self, channel: FramedChannel) -> None:
        from repro.dvm.messages import KeepaliveMessage

        try:
            while True:
                await asyncio.sleep(self.keepalive_interval)
                channel.send(
                    KeepaliveMessage(
                        plan_id=SESSION_PLAN, device=self.device
                    )
                )
        except asyncio.CancelledError:
            return

    async def _watchdog_loop(self, channel: FramedChannel) -> None:
        """Abort the connection once the peer was silent for the hold time.

        Silence is counted in ticks of this loop, not in wall time: a
        tick that wakes late because the event loop was busy counts
        once.  A stall of this process is not the peer's silence -- and
        when both ends share the loop it also held the peer's
        keepalives, so a wall-clock check would declare every session
        dead after any pause longer than the hold time.
        """
        heard = channel.last_rx
        silent = 0
        try:
            while True:
                await asyncio.sleep(self.keepalive_interval)
                if channel.last_rx != heard:
                    heard, silent = channel.last_rx, 0
                    continue
                silent += 1
                if silent * self.keepalive_interval >= self.hold_time:
                    self._hold_expired = True
                    channel.abort()  # receive() unblocks with None
                    return
        except asyncio.CancelledError:
            return
