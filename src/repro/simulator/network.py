"""The simulated network: verifiers + in-order channels + timing.

Timing model:

* every device is a sequential processor: an event is handled no earlier
  than the device's previous completion (``busy_until``);
* handler cost = measured wall-clock of the real verifier code, times the
  device's ``cpu_scale`` (switch CPUs are slower than the build machine;
  §9.4's four switch models are modeled as four scale factors);
* a message sent at completion time ``t`` over link ``(a, b)`` arrives at
  ``max(t + latency, last scheduled arrival on that direction)`` --
  FIFO per direction, i.e. a TCP connection per §5.2;
* verification time of a workload = simulation time when the network
  quiesces, measured from injection (the paper's §9.3.1 metric).

Wire accounting: every message is encoded with the real codec to count
bytes; ``strict_wire=True`` additionally decodes on receipt (full
serialization round trip) for protocol-conformance tests.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, cast

from repro.dvm.messages import (
    Message,
    decode_message,
    encode_message,
    message_kind,
)
from repro.dvm.verifier import OnDeviceVerifier, RootVerdict, Violation
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.schema import (
    DIRECTION_IN,
    DIRECTION_OUT,
    KIND_CONTROL,
    KIND_COUNTING,
    install_dvm_schema,
)
from repro.obs.trace import CAT_OP, CAT_SIM, NULL_TRACER, Tracer
from repro.packetspace.predicate import PredicateFactory
from repro.planner.tasks import Plan
from repro.simulator.engine import EventQueue
from repro.topology.graph import Topology


#: "recv <KIND>" span names, cached by message type (per-delivery
#: f-string formatting would dominate the tracing hot path).
_RECV_NAMES: Dict[type, str] = {}


def _recv_name(message: Message) -> str:
    name = _RECV_NAMES.get(type(message))
    if name is None:
        name = f"recv {message_kind(message)}"
        _RECV_NAMES[type(message)] = name
    return name


@dataclass(frozen=True)
class DeviceProfile:
    """Performance profile of a device model (paper §9.4 switch models).

    ``cores`` models the verification agent's thread pool (§8): events of
    *different* DPVNet node threads run concurrently on the switch's
    control-plane CPU cores.  Commodity switch CPUs have 2-4 cores; the
    paper's CPU-load ceiling of 0.48 corresponds to roughly half the
    cores busy.
    """

    name: str = "x86"
    cpu_scale: float = 1.0
    cores: int = 2


#: The four switch models of the §9.4 microbenchmarks.  The x86
#: control-plane CPUs (4 cores) are roughly comparable; the Centec ARM
#: CPU measured slowest.
SWITCH_PROFILES: Tuple[DeviceProfile, ...] = (
    DeviceProfile("Mellanox", 1.0, cores=4),
    DeviceProfile("UfiSpace", 1.15, cores=4),
    DeviceProfile("Edgecore", 1.3, cores=4),
    DeviceProfile("Centec", 2.2, cores=2),
)


class MessageStats:
    """Aggregate DVM traffic statistics on the shared metric registry.

    Installs the same instrument schema as the runtime's
    :class:`~repro.runtime.metrics.ClusterMetrics` (see
    :mod:`repro.obs.schema`), splitting counting from session control
    traffic.  The simulator has no session layer, so its ``control``
    series exist but stay at zero -- itself a parity-checkable fact.
    The legacy ``messages``/``bytes`` aggregates survive as properties
    over the registry.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.families = install_dvm_schema(self.registry)
        self.per_message_seconds: List[float] = []
        self.per_device_seconds: Dict[str, float] = {}
        self.convergence_seconds: List[float] = []
        #: Registry children bound on first use: a frame costs increments,
        #: not label lookups.
        self._counters: Dict[Tuple[str, str, str, str], Tuple[Counter, Counter]] = {}
        self._processing: Dict[str, Histogram] = {}

    @property
    def messages(self) -> int:
        """Total DVM frames sent (all devices, counting + control)."""
        return int(
            self.families["dvm_messages_total"].total(direction=DIRECTION_OUT)
        )

    @property
    def bytes(self) -> int:
        """Total DVM wire bytes sent."""
        return int(
            self.families["dvm_bytes_total"].total(direction=DIRECTION_OUT)
        )

    def record_transmit(
        self,
        source: str,
        destination: str,
        nbytes: int,
        control: bool = False,
    ) -> None:
        """Count one frame leaving ``source`` and arriving at
        ``destination`` (``nbytes`` may be 0 when byte counting is off)."""
        kind = KIND_CONTROL if control else KIND_COUNTING
        sent, received = self._bound("dvm_messages_total", source, destination, kind)
        sent.inc()
        received.inc()
        if nbytes:
            sent, received = self._bound("dvm_bytes_total", source, destination, kind)
            sent.inc(nbytes)
            received.inc(nbytes)

    def _bound(
        self, family: str, source: str, destination: str, kind: str
    ) -> Tuple[Counter, Counter]:
        """One family's (sender's out, receiver's in) counters for a
        directed link, looked up in the registry once."""
        key = (family, source, destination, kind)
        pair = self._counters.get(key)
        if pair is None:
            labels = self.families[family].labels
            out = labels(device=source, direction=DIRECTION_OUT, kind=kind)
            into = labels(device=destination, direction=DIRECTION_IN, kind=kind)
            pair = self._counters[key] = (cast(Counter, out), cast(Counter, into))
        return pair

    def record_processing(self, device: str, seconds: float) -> None:
        self.per_message_seconds.append(seconds)
        self.per_device_seconds[device] = (
            self.per_device_seconds.get(device, 0.0) + seconds
        )
        histogram = self._processing.get(device)
        if histogram is None:
            histogram = self._processing[device] = cast(
                Histogram,
                self.families["verifier_processing_seconds"].labels(device=device),
            )
        histogram.observe(seconds)

    def record_convergence(self, seconds: float) -> None:
        """One workload operation's injection-to-quiescence time."""
        self.convergence_seconds.append(seconds)
        self.families["convergence_seconds"].observe(seconds)


class SimulatedNetwork:
    """A topology's worth of on-device verifiers under simulation."""

    def __init__(
        self,
        topology: Topology,
        fibs: Dict[str, "Fib"],
        factory: PredicateFactory,
        profile: DeviceProfile = DeviceProfile(),
        profiles: Optional[Dict[str, DeviceProfile]] = None,
        strict_wire: bool = False,
        count_wire_bytes: bool = True,
        verifier_hosts: Optional[Dict[str, str]] = None,
        tracer: Optional[Tracer] = None,
        flight: bool = False,
        flight_capacity: int = 512,
    ) -> None:
        """``verifier_hosts`` enables §7's incremental deployment: map a
        device to the host that runs its verifier off-device (a VM or a
        neighboring switch).  The proxy collects the device's data plane
        and exchanges DVM messages on its behalf; messaging latency
        between two verifiers becomes the min-latency path between their
        hosts, and a proxied device's FIB events reach the verifier after
        the device→host latency.  Unmapped devices verify on-device, so
        mixed deployments work (RCDC's all-off-device layout being one
        extreme)."""
        self.topology = topology
        self.factory = factory
        self.fibs = fibs
        self.queue = EventQueue()
        self.strict_wire = strict_wire
        self.count_wire_bytes = count_wire_bytes
        self.stats = MessageStats()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if self.tracer.enabled and self.tracer.clock is None:
            # Span timestamps become simulation seconds.
            self.tracer.clock = lambda: self.queue.now
        self._profiles = profiles or {}
        self._default_profile = profile
        self.verifier_hosts = dict(verifier_hosts or {})
        for device, host in self.verifier_hosts.items():
            if not topology.has_device(device) or not topology.has_device(host):
                raise ValueError(
                    f"verifier host mapping {device!r} -> {host!r} names an "
                    "unknown device"
                )
        self.verifiers: Dict[str, OnDeviceVerifier] = {
            device: OnDeviceVerifier(
                device, factory, fibs[device], topology.neighbors(device)
            )
            for device in topology.devices
        }
        if self.tracer.enabled:
            for verifier in self.verifiers.values():
                verifier.tracer = self.tracer
        # One flight recorder (and Lamport clock) per device.  Clock
        # stamping is unconditional -- wire traffic is identical whether
        # or not forensics are on -- so the recorders always exist; the
        # ``flight`` flag only gates event recording.
        self._flight_enabled = flight
        self.flight_recorders: Dict[str, FlightRecorder] = {
            device: FlightRecorder(
                device,
                capacity=flight_capacity,
                enabled=flight,
                backend="simulator",
                monotonic=lambda: self.queue.now,
            )
            for device in topology.devices
        }
        if flight:
            for device, verifier in self.verifiers.items():
                verifier.flight = self.flight_recorders[device]
        self._busy_until: Dict[str, List[float]] = {
            device: [0.0] * max(1, self.profile_of(device).cores)
            for device in topology.devices
        }
        self._channel_clock: Dict[Tuple[str, str], float] = {}
        self._failed_links: set = set()
        self._plans: Dict[str, Plan] = {}
        self._latency_cache: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------------
    # proxy placement helpers

    def host_of(self, device: str) -> str:
        """Where ``device``'s verifier runs (itself unless proxied)."""
        return self.verifier_hosts.get(device, device)

    def _host_latency(self, source: str, destination: str) -> float:
        """Min-latency management-path delay between two hosts."""
        if source == destination:
            return 0.0
        cached = self._latency_cache.get(source)
        if cached is None:
            cached = self.topology.latency_distances(source)
            self._latency_cache[source] = cached
        return cached.get(destination, float("inf"))

    # ------------------------------------------------------------------
    # profiles

    def profile_of(self, device: str) -> DeviceProfile:
        return self._profiles.get(device, self._default_profile)

    # ------------------------------------------------------------------
    # core execution

    def _execute(
        self,
        device: str,
        handler: Callable[[], List[Tuple[str, Message]]],
        name: str = "execute",
        parent_id: Optional[int] = None,
        flight_cause: Optional[int] = None,
    ) -> None:
        """Run ``handler`` on ``device``, charging measured CPU time.

        The device's thread pool (§8) is modeled as ``cores`` parallel
        lanes: each event runs on the least-busy core.  With tracing on,
        the execution becomes a span at simulated time whose parent is
        the span that emitted the message being processed -- possibly on
        another device -- so the trace renders the propagation wave.
        """
        host = self.host_of(device)
        cores = self._busy_until[host]
        core_index = min(range(len(cores)), key=cores.__getitem__)
        start_sim = max(self.queue.now, cores[core_index])
        flight = (
            self.flight_recorders[device] if self._flight_enabled else None
        )
        if flight is not None:
            # Everything recorded while the handler runs -- CIB deltas,
            # verdict flips, the frames it sends -- points at the event
            # that triggered it (the frame_rx or admin event).
            flight.set_cause(flight_cause)
        tracer = self.tracer
        if not tracer.enabled:
            wall_start = _time.perf_counter()
            outgoing = handler()
            elapsed = (_time.perf_counter() - wall_start) * self.profile_of(
                host
            ).cpu_scale
            span_id: Optional[int] = None
        else:
            # Inlined tracer.span() (begin/pop + one record_span) so the
            # measured section carries no context-manager machinery: the
            # cost model stays byte-for-byte the untraced one.
            span_id = tracer.begin_span()
            try:
                wall_start = _time.perf_counter()
                outgoing = handler()
                elapsed = (
                    _time.perf_counter() - wall_start
                ) * self.profile_of(host).cpu_scale
            finally:
                tracer.pop_span()
            tracer.record_span(
                name,
                start=start_sim,
                end=start_sim + elapsed,
                device=host,
                cat=CAT_SIM,
                span_id=span_id,
                parent_id=parent_id,
                attrs={"core": core_index, "cost_seconds": elapsed},
            )
        completion = start_sim + elapsed
        cores[core_index] = completion
        self.stats.record_processing(host, elapsed)
        for destination, message in outgoing:
            self._transmit(
                device, destination, message, completion, parent_id=span_id
            )
        if flight is not None:
            flight.clear_cause()

    def _transmit(
        self,
        source: str,
        destination: str,
        message: Message,
        when: float,
        parent_id: Optional[int] = None,
    ) -> None:
        link_key = (source, destination)
        proxied = source in self.verifier_hosts or destination in self.verifier_hosts
        if not proxied:
            if not self.topology.has_link(source, destination):
                raise RuntimeError(
                    f"verifier on {source!r} addressed non-neighbor "
                    f"{destination!r}"
                )
            normalized = tuple(sorted((source, destination)))
            if normalized in self._failed_links:
                return  # the physical link is down; TCP will stall -- drop
            latency = self.topology.link(source, destination).latency
        else:
            # Off-device verifiers talk over the management network
            # between their hosts.
            latency = self._host_latency(
                self.host_of(source), self.host_of(destination)
            )
            if latency == float("inf"):
                return  # hosts disconnected
        # Stamp the sender's Lamport clock into the frame header.  This
        # is unconditional (recorder enablement only gates *events*), so
        # the wire traffic is byte-identical with forensics on or off.
        # The clock value is threaded to the delivery explicitly: one
        # message instance can fan out to several peers (link-state
        # floods), each send getting its own stamp.
        clock = self.flight_recorders[source].clock.tick()
        object.__setattr__(message, "clock", clock)
        nbytes = 0
        if self.count_wire_bytes:
            payload = encode_message(message)
            nbytes = len(payload)
            if self.strict_wire:
                message = decode_message(payload, self.factory)
        self.stats.record_transmit(source, destination, nbytes)
        if self._flight_enabled:
            self.flight_recorders[source].record(
                "frame_tx",
                kind=message_kind(message),
                peer=destination,
                plan=message.plan_id,
                clock=clock,
            )
        arrival = max(
            when + latency, self._channel_clock.get(link_key, 0.0)
        )
        self._channel_clock[link_key] = arrival
        recv_name = _recv_name(message) if self.tracer.enabled else "recv"

        def deliver(
            device: str = destination,
            payload_message: Message = message,
            frame_clock: int = clock,
        ) -> None:
            recorder = self.flight_recorders[device]
            recorder.clock.observe(frame_clock)
            cause: Optional[int] = None
            if recorder.enabled:
                cause = recorder.record(
                    "frame_rx",
                    kind=message_kind(payload_message),
                    peer=source,
                    plan=payload_message.plan_id,
                    clock=frame_clock,
                )
            self._execute(
                device,
                lambda: self.verifiers[device].on_message(payload_message),
                name=recv_name,
                parent_id=parent_id,
                flight_cause=cause,
            )

        self.queue.schedule(max(arrival, self.queue.now), deliver)

    # ------------------------------------------------------------------
    # workload operations (each returns the convergence time in seconds)

    def _begin_op(self, label: str) -> Optional[int]:
        """Start a traced verification session; returns the op span id.

        The id is allocated up front so every event the operation
        schedules can parent to it; the span itself is recorded once the
        network quiesces (:meth:`_finish_op`).
        """
        if not self.tracer.enabled:
            return None
        self.tracer.begin_operation(label)
        return self.tracer.next_id()

    def _finish_op(
        self, span_id: Optional[int], name: str, start: float, elapsed: float
    ) -> float:
        self.stats.record_convergence(elapsed)
        if span_id is not None:
            self.tracer.event(
                "quiescence", cat=CAT_SIM, parent_id=span_id
            )
            self.tracer.record_span(
                name,
                start=start,
                end=start + elapsed,
                cat=CAT_OP,
                span_id=span_id,
                attrs={"convergence_seconds": elapsed},
            )
        return elapsed

    def _flight_admin(
        self, device: str, kind: str, detail: str = ""
    ) -> Optional[int]:
        """Record one admin event -- the root cause of an operation's
        cascade -- on ``device``'s flight recorder."""
        if not self._flight_enabled:
            return None
        return self.flight_recorders[device].record(
            "admin", kind=kind, detail=detail
        )

    def install_plan(self, plan_id: str, plan: Plan) -> float:
        """Distribute tasks (planner-side, untimed) and run to quiescence."""
        self._plans[plan_id] = plan
        op = self._begin_op(f"install_plan:{plan_id}")
        start = self.queue.now
        for device in plan.devices():
            verifier = self.verifiers[device]
            cause = self._flight_admin(device, "install", plan_id)
            self.queue.schedule(
                self.queue.now,
                lambda v=verifier, c=cause: self._execute(
                    v.device,
                    lambda: v.install_plan(plan_id, plan),
                    name="install_plan",
                    parent_id=op,
                    flight_cause=c,
                ),
            )
        elapsed = self.run_to_quiescence() - start
        return self._finish_op(op, f"install_plan:{plan_id}", start, elapsed)

    def install_plans(self, plans: Dict[str, Plan]) -> float:
        """Install many plans as one burst; returns total convergence time."""
        op = self._begin_op(f"install_plans:{len(plans)}")
        start = self.queue.now
        for plan_id, plan in plans.items():
            self._plans[plan_id] = plan
            for device in plan.devices():
                verifier = self.verifiers[device]
                cause = self._flight_admin(device, "install", plan_id)
                self.queue.schedule(
                    self.queue.now,
                    lambda v=verifier, i=plan_id, p=plan, c=cause: self._execute(
                        v.device,
                        lambda: v.install_plan(i, p),
                        name="install_plan",
                        parent_id=op,
                        flight_cause=c,
                    ),
                )
        elapsed = self.run_to_quiescence() - start
        return self._finish_op(
            op, f"install_plans:{len(plans)}", start, elapsed
        )

    def burst_fib_event(self, devices: Optional[Sequence[str]] = None) -> float:
        """All devices (re)read their FIBs at once -- the burst-update
        scenario of §9.2/§9.3.2."""
        op = self._begin_op("burst_fib_event")
        start = self.queue.now
        for device in devices or self.topology.devices:
            verifier = self.verifiers[device]
            cause = self._flight_admin(device, "fib_burst")
            self.queue.schedule(
                self.queue.now,
                lambda v=verifier, c=cause: self._execute(
                    v.device,
                    v.on_fib_changed,
                    name="fib_changed",
                    parent_id=op,
                    flight_cause=c,
                ),
            )
        elapsed = self.run_to_quiescence() - start
        return self._finish_op(op, "burst_fib_event", start, elapsed)

    def fib_update(self, device: str, mutate: Callable[[], None]) -> float:
        """Apply one rule update at ``device`` and verify incrementally.

        For proxied devices the update must first travel from the device
        to its verifier's host over the management network.
        """
        op = self._begin_op(f"fib_update:{device}")
        start = self.queue.now
        mutate()
        verifier = self.verifiers[device]
        cause = self._flight_admin(device, "fib_update", device)
        delay = self._host_latency(device, self.host_of(device))
        self.queue.schedule(
            self.queue.now + delay,
            lambda: self._execute(
                device,
                verifier.on_fib_changed,
                name="fib_changed",
                parent_id=op,
                flight_cause=cause,
            ),
        )
        elapsed = self.run_to_quiescence() - start
        return self._finish_op(op, f"fib_update:{device}", start, elapsed)

    def fail_link(self, a: str, b: str) -> float:
        """Fail link (a, b); both endpoints flood and the network recounts."""
        self._failed_links.add(tuple(sorted((a, b))))
        return self._link_event(a, b, up=False)

    def recover_link(self, a: str, b: str) -> float:
        self._failed_links.discard(tuple(sorted((a, b))))
        return self._link_event(a, b, up=True)

    def _link_event(self, a: str, b: str, up: bool) -> float:
        label = f"link_{'recover' if up else 'fail'}:{a}-{b}"
        op = self._begin_op(label)
        start = self.queue.now
        for device in (a, b):
            verifier = self.verifiers[device]
            cause = self._flight_admin(
                device, "link", f"{a}-{b} up={up}"
            )
            self.queue.schedule(
                self.queue.now,
                lambda v=verifier, c=cause: self._execute(
                    v.device,
                    lambda: v.on_link_event((a, b), up),
                    name="link_event",
                    parent_id=op,
                    flight_cause=c,
                ),
            )
        elapsed = self.run_to_quiescence() - start
        return self._finish_op(op, label, start, elapsed)

    def run_to_quiescence(self) -> float:
        """Drain all events; returns the simulation time reached.

        The garbage collector is paused while events run: a collection
        pause landing inside a measured handler would be charged to that
        device's simulated compute time, adding tens of milliseconds of
        noise to otherwise-microsecond events.
        """
        import gc

        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            self.queue.run()
        finally:
            if gc_was_enabled:
                gc.enable()
        # Processing may outlast the last event's start time.
        tail = max(
            (max(cores) for cores in self._busy_until.values()),
            default=self.queue.now,
        )
        if tail > self.queue.now:
            self.queue.now = tail
        return self.queue.now

    # ------------------------------------------------------------------
    # results

    def verdicts(self, plan_id: str) -> List[RootVerdict]:
        results: List[RootVerdict] = []
        for verifier in self.verifiers.values():
            results.extend(verifier.root_verdicts(plan_id))
        return results

    def holds(self, plan_id: str) -> bool:
        """True when every root region of the plan verifies.

        For local-mode (equal) plans the verdict is the absence of
        violations instead of root counts.
        """
        plan = self._plans[plan_id]
        if plan.mode == "local":
            return not any(
                violation.plan_id == plan_id
                for verifier in self.verifiers.values()
                for violation in verifier.violations
            )
        results = self.verdicts(plan_id)
        return bool(results) and all(verdict.holds for verdict in results)

    def all_violations(self) -> List[Violation]:
        return [
            violation
            for verifier in self.verifiers.values()
            for violation in verifier.violations
        ]

    def flight_dump(self) -> Dict[str, Dict[str, object]]:
        """Per-device flight-recorder dumps (empty rings when disabled)."""
        return {
            device: recorder.dump()
            for device, recorder in self.flight_recorders.items()
        }
