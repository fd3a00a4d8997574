"""The asyncio testbed: one verifier agent per device over localhost TCP.

:class:`RuntimeCluster` boots a :class:`DeviceHost` per topology device.
Each host runs the *same* :class:`~repro.dvm.agent.DeviceAgent` the
simulator drives, behind a real TCP server socket; hosts are wired
along topology links with :class:`~repro.runtime.connection.PeerSession`
(the smaller endpoint dials).  All DVM traffic travels as the real
length-prefixed binary frames end-to-end.

**Sharded (fleet) mode.**  A cluster can also host just a *shard* of the
topology: pass ``shard`` (the devices this process owns) plus
``dvm_ports`` (the fleet's deterministic device -> DVM port plan, see
:mod:`repro.fleet.sharding`).  Local hosts bind their planned ports;
sessions toward devices of other shards dial the planned port directly,
so worker processes rendezvous with no registry.  Sessions between two
co-located devices skip the kernel entirely via the in-memory fast path
(:func:`repro.runtime.fastpath.memory_pair`) while still exchanging
byte-identical DVM frames.  Workload injection and quiescence stay
per-shard; the fleet launcher (:mod:`repro.fleet.launcher`) federates
them through the split operation API (:meth:`RuntimeCluster
.begin_operation` / :meth:`inject_plans` / :meth:`settle_operation`).

Convergence ("quiescence") is counted, not inferred from silence: every
connection counts the counting frames it queued (``out``) and those
from its peer the host finished handling (``done``), and the network has
converged exactly when every inbox is empty and every link is balanced
(:meth:`RuntimeCluster.unsettled`).  A frame parked in a kernel buffer
keeps its link unbalanced, so a verdict is never read early; the waiter
sleeps on an event, not a poll.  Keepalives are control traffic and are
never counted.  Per-operation convergence time is measured to the *last
counting activity*, not to the detection instant.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.dataplane.fib import Fib
from repro.dvm.agent import AgentBackend, DeviceAgent, OpWindow, Step
from repro.dvm.messages import Message, MessageDecodeError, OpenMessage
from repro.dvm.verifier import Outgoing
from repro.obs.log import get_logger, kv
from repro.obs.serve import DeviceStatus, TelemetryServer
from repro.packetspace.predicate import PredicateFactory
from repro.planner.tasks import Plan
from repro.runtime.connection import (
    ST_ESTABLISHED,
    BackoffPolicy,
    PeerSession,
    SessionEvents,
)
from repro.runtime.fastpath import memory_pair
from repro.runtime.metrics import ClusterMetrics, DeviceMetrics
from repro.runtime.transport import SESSION_PLAN, FramedChannel
from repro.topology.graph import Topology


logger = get_logger("runtime.cluster")


class ClusterTimeoutError(RuntimeError):
    """An operation did not reach quiescence within its deadline."""


def _normalize(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class DeviceHost:
    """One device's transport: its agent's server + peer sessions."""

    def __init__(
        self,
        agent: DeviceAgent,
        factory: PredicateFactory,
        metrics: DeviceMetrics,
        cluster: "RuntimeCluster",
        http_port: Optional[int] = None,
        dvm_port: int = 0,
    ) -> None:
        self.agent = agent
        self.device = agent.device
        self.factory = factory
        self.metrics = metrics
        self.cluster = cluster
        self.sessions: Dict[str, PeerSession] = {}
        # Each inbox entry carries the message and the peer and
        # connection it arrived on (whose ``done`` counter it bumps).
        self.inbox: "asyncio.Queue[Tuple[Message, str, FramedChannel]]" = (
            asyncio.Queue()
        )
        self.server: Optional[asyncio.Server] = None
        #: Planned DVM port (0 = ephemeral); ``port`` is the bound one.
        self.dvm_port = dvm_port
        self.port: int = 0
        self._pump_task: Optional["asyncio.Task[None]"] = None
        # Live telemetry (None = disabled on this cluster).  /metrics
        # serves the cluster's *shared* registry; /healthz serves this
        # device's own status record.
        self.telemetry: Optional[TelemetryServer] = None
        self._requested_http_port = http_port
        self._started_at = 0.0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._started_at = time.monotonic()
        try:
            self.server = await asyncio.start_server(
                self._accept, host="127.0.0.1", port=self.dvm_port
            )
        except OSError as exc:
            raise OSError(
                exc.errno or 0,
                f"cannot bind DVM port {self.dvm_port} for device "
                f"{self.device!r}: {exc.strerror or exc}",
            ) from exc
        self.port = self.server.sockets[0].getsockname()[1]
        self._pump_task = asyncio.get_running_loop().create_task(self._pump())
        if self._requested_http_port is not None:
            self.telemetry = TelemetryServer(
                lambda: self.cluster.metrics.registry,
                lambda: self.status().to_dict(),
                host=self.cluster.http_host,
                port=self._requested_http_port,
                port_retry_window=self.cluster.http_retry_window,
                flight_provider=self.agent.flight.dump,
            )
            await self.telemetry.start()

    async def stop(self) -> None:
        for session in self.sessions.values():
            await session.stop()
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
            self._pump_task = None
        if self.telemetry is not None:
            await self.telemetry.stop()
            self.telemetry = None
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()
            self.server = None

    @property
    def http_port(self) -> int:
        """The bound telemetry port (0 when telemetry is disabled)."""
        return self.telemetry.port if self.telemetry is not None else 0

    # -- status ------------------------------------------------------------

    def status(self) -> DeviceStatus:
        """This device's status record (what ``/healthz`` serves).

        Runs on the cluster's event loop (telemetry handlers share it),
        so every field is a consistent same-tick snapshot, and reading
        it changes nothing.  ``status`` degrades while any
        administratively-up session is not established.
        """
        peers_down: List[str] = []
        sessions: Dict[str, Dict[str, object]] = {}
        for peer in sorted(self.sessions):
            session = self.sessions[peer]
            admin_up = self.cluster.link_admin_up(self.device, peer)
            established = session.is_established
            if admin_up and not established:
                peers_down.append(peer)
            entry: Dict[str, object] = {
                "established": established,
                "admin_up": admin_up,
                "pending_out": session.pending_out,
            }
            last_rx_age = session.last_rx_age()
            if last_rx_age is not None:
                entry["last_rx_age_seconds"] = round(last_rx_age, 6)
            sessions[peer] = entry
        metrics = self.metrics
        return DeviceStatus(
            status="degraded" if peers_down else "ok",
            device=self.device,
            phase=self.cluster.phase,
            uptime_seconds=round(
                max(0.0, time.monotonic() - self._started_at), 6
            ),
            dvm_port=self.port,
            http_port=self.http_port,
            inbox_depth=self.inbox.qsize(),
            sessions=sessions,
            peers_down=peers_down,
            decode_errors=int(metrics.decode_errors.value),
            messages_in=int(metrics.messages_in.value),
            messages_out=int(metrics.messages_out.value),
            bytes_in=int(metrics.bytes_in.value),
            bytes_out=int(metrics.bytes_out.value),
            reconnects=int(metrics.reconnects.value),
            peer_down_events=int(metrics.peer_down_events.value),
            handshake_failures=int(metrics.handshake_failures.value),
        )

    # -- inbound connections -----------------------------------------------

    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Server side of the handshake: identify the peer, then adopt."""
        channel = FramedChannel(reader, writer, self.factory, self.metrics)
        channel.start()
        try:
            first = await asyncio.wait_for(
                channel.receive(), timeout=self.cluster.handshake_timeout
            )
        except (
            asyncio.TimeoutError,
            MessageDecodeError,
            ConnectionError,
            OSError,
        ) as exc:
            # A peer that dials and then stalls, resets, or sends
            # garbage before its OPEN: refuse the connection, but leave
            # a record -- silent handshake failures made reconnect storms
            # undiagnosable.
            self.metrics.handshake_failures.inc()
            self.agent.flight.record("handshake_failed", error=repr(exc))
            logger.debug(
                "inbound handshake failed before OPEN",
                extra=kv(device=self.device, error=repr(exc)),
            )
            await channel.close()
            return
        if (
            not isinstance(first, OpenMessage)
            or first.plan_id != SESSION_PLAN
            or first.device not in self.sessions
        ):
            await channel.close()
            return
        session = self.sessions[first.device]
        if session.active:
            # Dial-rule violation (we dial toward that peer); refuse.
            await channel.close()
            return
        await session.adopt(channel)

    # -- message processing ------------------------------------------------

    def handle_incoming(
        self, peer: str, message: Message, channel: FramedChannel
    ) -> None:
        """Session read loops push counting frames here (FIFO per peer)."""
        self.agent.arrived(peer, message, getattr(message, "clock", 0))
        self.inbox.put_nowait((message, peer, channel))
        self.cluster.note_activity()

    async def _pump(self) -> None:
        while True:
            message, peer, channel = await self.inbox.get()
            self.call(self.agent.handle(message))
            # Done only now: its outputs are already in some ``out``.
            channel.done += 1
            self.cluster.frame_done(peer)

    def call(self, step: Step) -> None:
        """Run one agent step, time it and transmit what it emits."""
        start = time.monotonic()
        outgoing = step()
        elapsed = time.monotonic() - start
        step.timed(start, elapsed)
        self.metrics.observe_processing(elapsed)
        self.route(outgoing)
        self.cluster.note_activity()

    def route(self, outgoing: Outgoing) -> None:
        for destination, message in outgoing:
            session = self.sessions.get(destination)
            if session is not None and session.send(message):
                self.cluster.frame_queued(destination)
            # else: session down or link failed -- the frame is dropped,
            # exactly like a TCP connection stalling over a dead link;
            # the re-OPEN refresh repairs state on reconnect.

    # -- session callbacks -------------------------------------------------

    def on_session_established(self, peer: str) -> None:
        """Re-OPEN every installed plan so the peer refreshes our state."""
        self.route(self.agent.refresh(peer))
        self.cluster.session_changed()

    def on_peer_down(self, peer: str) -> None:
        # The loss chains to the session's last FSM edge (conn_lost /
        # hold_expired).
        session = self.sessions.get(peer)
        edge = session.last_edge if session is not None else None
        self.call(self.agent.event("peer_down", peer, cause=edge))
        self.cluster.session_changed()


class RuntimeCluster(AgentBackend):
    """All device hosts of one topology, ready for workload injection."""

    backend = "runtime"

    def __init__(
        self,
        topology: Topology,
        fibs: Dict[str, Fib],
        factory: PredicateFactory,
        *,
        keepalive_interval: float = 0.5,
        hold_multiplier: float = 3.0,
        backoff: Optional[BackoffPolicy] = None,
        seed: int = 7,
        op_timeout: float = 60.0,
        handshake_timeout: float = 5.0,
        http_enabled: bool = True,
        http_base_port: Optional[int] = None,
        http_host: str = "127.0.0.1",
        http_retry_window: int = 0,
        shard: Optional[Iterable[str]] = None,
        dvm_ports: Optional[Dict[str, int]] = None,
        local_fastpath: bool = False,
        flight: bool = True,
        flight_capacity: int = 512,
    ) -> None:
        self.metrics = ClusterMetrics()
        # Flight recording defaults on for the testbed: forensics are
        # the point of running real sockets.
        super().__init__(
            topology,
            fibs,
            factory,
            self.metrics.registry,
            flight,
            flight_capacity,
        )
        self.keepalive_interval = keepalive_interval
        self.hold_multiplier = hold_multiplier
        self.backoff = backoff or BackoffPolicy()
        self.seed = seed
        self.op_timeout = op_timeout
        self.handshake_timeout = handshake_timeout
        self.http_enabled = http_enabled
        self.http_base_port = http_base_port
        self.http_host = http_host
        self.http_retry_window = http_retry_window
        #: Devices hosted by *this* process (sorted); the whole topology
        #: when ``shard`` is None (classic single-process testbed).
        self.local_devices: Tuple[str, ...] = tuple(
            sorted(shard) if shard is not None else topology.devices
        )
        unknown = [
            device
            for device in self.local_devices
            if not topology.has_device(device)
        ]
        if unknown:
            raise ValueError(f"shard names unknown devices: {unknown}")
        #: Fleet-wide device -> DVM server port plan (empty = ephemeral).
        self.dvm_ports: Dict[str, int] = dict(dvm_ports or {})
        if len(self.local_devices) < topology.num_devices:
            missing = [
                device
                for device in topology.devices
                if device not in self.dvm_ports
            ]
            if missing:
                raise ValueError(
                    "sharded clusters need a dvm_ports entry for every "
                    f"device; missing {missing[:3]}..."
                )
        self.local_fastpath = local_fastpath
        self.hosts: Dict[str, DeviceHost] = {}
        self._failed_links: Set[Tuple[str, str]] = set()
        self._last_activity_wall = time.monotonic()
        # Counting frames queued toward local peers and not yet handled:
        # only the wake-up hint for wait_quiescence, never the verdict.
        self._outstanding = 0
        self._recheck = asyncio.Event()
        self._started = False
        # In-process fast-path accept tasks (one per co-located connect);
        # references keep them alive until done.
        self._accept_tasks: Set["asyncio.Task[None]"] = set()
        # The open operation window (None = idle; /healthz's phase).
        self._op: Optional[OpWindow] = None

    # -- activity / quiescence ---------------------------------------------

    def note_activity(self) -> None:
        self._last_activity_wall = time.monotonic()

    def frame_queued(self, peer: str) -> None:
        """A session toward ``peer`` accepted one counting frame."""
        if peer in self.hosts:
            self._outstanding += 1
        self.note_activity()

    def frame_done(self, peer: str) -> None:
        """A host finished handling one counting frame from ``peer``."""
        if peer in self.hosts:
            self._outstanding -= 1
        self.note_activity()
        if self._outstanding <= 0:
            self._recheck.set()

    def session_changed(self) -> None:
        """A session established, or finished its loss handling."""
        self._recheck.set()

    def link_admin_up(self, a: str, b: str) -> bool:
        return _normalize(a, b) not in self._failed_links

    def unsettled(self) -> List[str]:
        """What still blocks local quiescence (empty = settled).

        Settled: every local inbox is empty and every link is balanced
        -- both ends ESTABLISHED on a live connection with ``a.out ==
        b.done`` and ``b.out == a.done``, or neither end holding a
        connection that can still deliver while the link is down or its
        dialing end is held down (otherwise the session is *redialing*,
        and its re-OPEN refresh is still coming).  One live end, or an
        ESTABLISHED end torn down before its ``on_peer_down`` ran, is
        *transitional*: frames or loss handling are still coming.  Ends
        toward other shards only need to be out of transition; the
        launcher matches their :meth:`cross_shard_counters`.

        Frames on a dead connection are lost, not in flight, so this
        also rebuilds the outstanding count from the live channels.
        """
        blocking: List[str] = []
        outstanding = 0
        for device, host in self.hosts.items():
            if host.inbox.qsize():
                blocking.append(f"inbox {device} ({host.inbox.qsize()})")
            for peer, session in host.sessions.items():
                here = session.live_channel
                if here is None and session.state == ST_ESTABLISHED:
                    blocking.append(f"{device}-{peer} transitional")
                remote = self.hosts.get(peer)
                if remote is None or device > peer:
                    continue  # other shard, or the link's second visit
                there = remote.sessions[device].live_channel
                if here is None and there is None:
                    # No connection, so nothing is in flight; ``session``
                    # is the dialing end (device < peer).
                    if not session.held_down and self.link_admin_up(
                        device, peer
                    ):
                        blocking.append(f"{device}-{peer} redialing")
                    continue
                if here is None or there is None:
                    blocking.append(f"{device}-{peer} one end live")
                    continue
                outstanding += here.out - there.done + there.out - here.done
                if here.out != there.done or there.out != here.done:
                    blocking.append(
                        f"{device}-{peer} out/done {here.out}/{there.done}"
                        f" {there.out}/{here.done}"
                    )
        self._outstanding = outstanding
        return blocking

    def cross_shard_counters(self) -> List[List[object]]:
        """``[device, peer, out, done]`` per live end toward another shard."""
        rows: List[List[object]] = []
        for device, host in self.hosts.items():
            for peer, session in host.sessions.items():
                channel = session.live_channel
                if channel is not None and peer not in self.hosts:
                    rows.append([device, peer, channel.out, channel.done])
        return rows

    async def wait_quiescence(self, timeout: Optional[float] = None) -> float:
        """Wait until :meth:`unsettled` is empty; returns seconds since
        the last counting activity.  Sleeps on an event that fires when
        the outstanding count reaches zero or a session comes or goes.
        """
        deadline = time.monotonic() + (timeout or self.op_timeout)
        while True:
            self._recheck.clear()
            blocking = self.unsettled()
            if not blocking:
                break
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ClusterTimeoutError(
                    "no quiescence within deadline "
                    f"(outstanding={self._outstanding}, "
                    f"unbalanced: {'; '.join(blocking)})"
                )
            # On expiry the next pass raises with what blocks *then*.
            timer = asyncio.get_running_loop().call_later(
                remaining, self._recheck.set
            )
            try:
                await self._recheck.wait()
            finally:
                timer.cancel()
        return time.monotonic() - self._last_activity_wall

    @property
    def phase(self) -> str:
        """``"converging"`` while an operation is open, else ``"idle"``."""
        return "converging" if self._op is not None else "idle"

    # -- lifecycle ---------------------------------------------------------

    def _allocate_http_ports(self) -> Dict[str, Optional[int]]:
        """Per-device telemetry ports: base+index over sorted names.

        With no base port every agent binds an ephemeral port (read it
        back from :attr:`http_endpoints`); ``None`` disables telemetry.
        """
        ports: Dict[str, Optional[int]] = {}
        for index, device in enumerate(sorted(self.topology.devices)):
            if device not in self.hosts and device not in self.local_devices:
                continue
            if not self.http_enabled:
                ports[device] = None
            elif self.http_base_port is None:
                ports[device] = 0
            else:
                ports[device] = self.http_base_port + index
        return ports

    async def start(self) -> None:
        """Boot the local hosts, dial every link, wait for all sessions.

        In sharded mode only this shard's devices boot; sessions toward
        other shards dial the fleet port plan and establish once the
        owning worker is up (so a fleet boots in any worker order).
        """
        # Python 3.9 binds an Event to the loop current at construction,
        # and the facade constructs the cluster off-loop.
        self._recheck = asyncio.Event()
        http_ports = self._allocate_http_ports()
        for device in self.local_devices:
            host = DeviceHost(
                self._spawn(device),
                self.factory,
                self.metrics.device(device),
                self,
                http_port=http_ports[device],
                dvm_port=self.dvm_ports.get(device, 0),
            )
            self.hosts[device] = host
            await host.start()
        for link in self.topology.links:
            self._wire(link.a, link.b)
            self._wire(link.b, link.a)
        for host in self.hosts.values():
            for session in host.sessions.values():
                session.start()
        await self.wait_all_established()
        self._started = True

    def _peer_port(self, peer: str) -> int:
        """The DVM port to dial for ``peer`` (local bind or fleet plan)."""
        host = self.hosts.get(peer)
        if host is not None:
            return host.port
        return self.dvm_ports[peer]

    async def _local_connect(
        self, peer: str
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        """In-process fast path: memory pair straight into ``peer``'s
        accept path (same handshake, byte-identical frames, no kernel)."""
        host = self.hosts.get(peer)
        if host is None or host.server is None:
            raise ConnectionError(f"no in-process host for {peer!r}")
        local_end, remote_end = memory_pair()
        task = asyncio.get_running_loop().create_task(
            host._accept(remote_end[0], remote_end[1])
        )
        self._accept_tasks.add(task)
        task.add_done_callback(self._accept_tasks.discard)
        return local_end

    def _wire(self, device: str, peer: str) -> None:
        host = self.hosts.get(device)
        if host is None:
            return  # endpoint owned by another fleet worker
        events = SessionEvents(
            on_message=host.handle_incoming,
            on_established=host.on_session_established,
            on_peer_down=host.on_peer_down,
            link_up=lambda p, d=device: self.link_admin_up(d, p),
            stamp=host.agent.stamp,
        )
        use_fastpath = (
            self.local_fastpath
            and device < peer  # the dialing side drives the fast path
            and peer in self.local_devices
        )
        host.sessions[peer] = PeerSession(
            device,
            peer,
            self.factory,
            host.metrics,
            events,
            active=device < peer,
            peer_address=lambda p=peer: ("127.0.0.1", self._peer_port(p)),
            keepalive_interval=self.keepalive_interval,
            hold_multiplier=self.hold_multiplier,
            backoff=self.backoff,
            rng=random.Random(f"{self.seed}:{device}:{peer}"),
            flight=host.agent.flight,
            connector=(
                (lambda p=peer: self._local_connect(p))
                if use_fastpath
                else None
            ),
        )

    async def wait_all_established(
        self, timeout: Optional[float] = None
    ) -> None:
        waiters = [
            session.established.wait()
            for host in self.hosts.values()
            for session in host.sessions.values()
            if self.link_admin_up(session.device, session.peer)
        ]
        await asyncio.wait_for(
            asyncio.gather(*waiters), timeout=timeout or self.op_timeout
        )

    async def wait_session(
        self, a: str, b: str, timeout: Optional[float] = None
    ) -> None:
        """Wait until the locally-hosted ends of link (a, b) establish."""
        waiters = []
        for device, peer in ((a, b), (b, a)):
            host = self.hosts.get(device)
            if host is not None:
                waiters.append(host.sessions[peer].established.wait())
        if not waiters:
            return
        await asyncio.wait_for(
            asyncio.gather(*waiters), timeout=timeout or self.op_timeout
        )

    async def stop(self) -> None:
        for host in self.hosts.values():
            await host.stop()
        pending = list(self._accept_tasks)
        self._accept_tasks.clear()
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        self.hosts.clear()
        self.agents.clear()
        self._started = False

    # -- split operation API (fleet workers inject, settle, report) ---------
    #
    # The classic workload operations below are begin + inject + settle
    # fused into one coroutine.  Fleet workers need the pieces: the
    # launcher broadcasts the injection to every worker synchronously,
    # then each worker settles in the background while /healthz reports
    # phase="converging".

    def begin_operation(self, label: str = "op") -> OpWindow:
        """Open an operation window."""
        self._last_activity_wall = time.monotonic()
        self._op = OpWindow(label, self._last_activity_wall)
        return self._op

    def finish_operation(self, window: OpWindow) -> float:
        """Close the window; returns convergence seconds (last counting
        activity minus start)."""
        self._op = None
        return self.close_op(
            window, max(0.0, self._last_activity_wall - window.start)
        )

    async def settle_operation(self, window: OpWindow) -> float:
        """Wait for quiescence, then close the operation window."""
        await self.wait_quiescence()
        return self.finish_operation(window)

    def _inject(
        self, devices: Iterable[str], event: str, *args: object, **fields: object
    ) -> None:
        """Record ``event`` on each *locally hosted* device and run its
        step there (no settle).

        Sharded mode: devices owned by other workers are skipped here --
        their own worker injects the same event, so fleet-wide every
        device still receives it exactly once.
        """
        for device in devices:
            host = self.hosts.get(device)
            if host is not None:
                host.call(host.agent.event(event, *args, **fields))

    def inject_fib_update(
        self, device: str, mutate: Callable[[], None]
    ) -> bool:
        """Apply one rule update if ``device`` is local; True when it was."""
        if device not in self.hosts:
            return False
        mutate()
        self._inject((device,), "fib_update")
        return True

    def apply_link_event(self, a: str, b: str, up: bool) -> None:
        """Mark link (a, b) up/down and notify its local endpoints."""
        if up:
            self._failed_links.discard(_normalize(a, b))
        else:
            self._failed_links.add(_normalize(a, b))
        for device, peer in ((a, b), (b, a)):
            if not up and device in self.hosts:
                self.hosts[device].sessions[peer].disconnect()
            self._inject((device,), "link", (a, b), up)

    # -- workload operations (each returns convergence seconds) ------------

    async def install_plan(self, plan_id: str, plan: Plan) -> float:
        return await self.install_plans({plan_id: plan})

    async def install_plans(self, plans: Dict[str, Plan]) -> float:
        """Install plans on their devices as one burst, run to quiescence."""
        window = self.begin_operation(f"install_plans:{len(plans)}")
        self.inject_plans(plans)
        return await self.settle_operation(window)

    async def fib_update(
        self, device: str, mutate: Callable[[], None]
    ) -> float:
        """Apply one rule update at ``device``, verify incrementally."""
        window = self.begin_operation(f"fib_update:{device}")
        if not self.inject_fib_update(device, mutate):
            raise KeyError(f"device {device!r} is not hosted locally")
        return await self.settle_operation(window)

    async def burst_fib_event(self) -> float:
        window = self.begin_operation("burst_fib_event")
        self._inject(self.hosts, "fib_burst")
        return await self.settle_operation(window)

    async def fail_link(self, a: str, b: str) -> float:
        """Fail link (a, b): cut its TCP sessions, flood, recount."""
        window = self.begin_operation(f"link_fail:{a}-{b}")
        self.apply_link_event(a, b, up=False)
        return await self.settle_operation(window)

    async def recover_link(self, a: str, b: str) -> float:
        """Recover link (a, b): redial, refresh sessions, recount."""
        window = self.begin_operation(f"link_recover:{a}-{b}")
        self.apply_link_event(a, b, up=True)
        await self.wait_session(a, b)
        return await self.settle_operation(window)

    async def drop_connection(
        self, a: str, b: str, hold_down: float = 0.0, reconnect: bool = True
    ) -> float:
        """Force-drop the TCP connection of link (a, b) (fault injection).

        The link stays administratively up: dead-peer detection fires
        ``on_peer_down`` on both ends, and (unless ``reconnect`` is
        False) backoff-reconnect re-establishes the session after
        ``hold_down`` seconds and refreshes state via re-OPEN.
        """
        window = self.begin_operation(f"drop_connection:{a}-{b}")
        self.hosts[a].sessions[b].disconnect(hold_down)
        self.hosts[b].sessions[a].disconnect(hold_down)
        if reconnect:
            await self.wait_session(a, b)
        return await self.settle_operation(window)

    @property
    def http_endpoints(self) -> Dict[str, Tuple[str, int]]:
        """``device -> (host, port)`` of every live telemetry server."""
        return {
            device: (self.http_host, host.telemetry.port)
            for device, host in sorted(self.hosts.items())
            if host.telemetry is not None
        }
