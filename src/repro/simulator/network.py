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
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    cast,
)

from repro.dvm.agent import AgentBackend, OpWindow, Step
from repro.dvm.messages import Message, decode_message, encode_message
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.schema import (
    DIRECTION_IN,
    DIRECTION_OUT,
    KIND_COUNTING,
    install_dvm_schema,
)
from repro.packetspace.predicate import PredicateFactory
from repro.planner.tasks import Plan
from repro.simulator.engine import EventQueue
from repro.topology.graph import Topology


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
        self, source: str, destination: str, nbytes: int
    ) -> None:
        """Count one counting frame leaving ``source`` and arriving at
        ``destination``."""
        kind = KIND_COUNTING
        sent, received = self._bound("dvm_messages_total", source, destination, kind)
        sent.inc()
        received.inc()
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
        histogram = self._processing.get(device)
        if histogram is None:
            histogram = self._processing[device] = cast(
                Histogram,
                self.families["verifier_processing_seconds"].labels(device=device),
            )
        histogram.observe(seconds)


class SimulatedNetwork(AgentBackend):
    """A topology's worth of device agents under simulation."""

    backend = "simulator"

    def __init__(
        self,
        topology: Topology,
        fibs: Dict[str, "Fib"],
        factory: PredicateFactory,
        profile: DeviceProfile = DeviceProfile(),
        strict_wire: bool = False,
        flight: bool = False,
        flight_capacity: int = 512,
    ) -> None:
        self.stats = MessageStats()
        super().__init__(
            topology,
            fibs,
            factory,
            self.stats.registry,
            flight,
            flight_capacity,
            # Flight timestamps are simulation seconds.
            monotonic=lambda: self.queue.now,
        )
        self.queue = EventQueue()
        self.strict_wire = strict_wire
        self._cpu_scale = profile.cpu_scale
        for device in topology.devices:
            self._spawn(device)
        self._busy_until: Dict[str, List[float]] = {
            device: [0.0] * max(1, profile.cores)
            for device in topology.devices
        }
        self._channel_clock: Dict[Tuple[str, str], float] = {}
        self._failed_links: set = set()

    # ------------------------------------------------------------------
    # core execution

    def _execute(self, device: str, step: Step) -> None:
        """Run ``step`` on ``device``, charging measured CPU time.

        The device's thread pool (§8) is modeled as ``cores`` parallel
        lanes: each event runs on the least-busy core.  The step's
        flight record gets its simulated start and cost, so a derived
        trace shows the modeled wave, not host noise.
        """
        cores = self._busy_until[device]
        core_index = min(range(len(cores)), key=cores.__getitem__)
        start_sim = max(self.queue.now, cores[core_index])
        wall_start = _time.perf_counter()
        outgoing = step()
        elapsed = (_time.perf_counter() - wall_start) * self._cpu_scale
        step.timed(start_sim, elapsed)
        completion = start_sim + elapsed
        cores[core_index] = completion
        self.stats.record_processing(device, elapsed)
        for destination, message in outgoing:
            self._transmit(device, destination, message, completion)

    def _transmit(
        self,
        source: str,
        destination: str,
        message: Message,
        when: float,
    ) -> None:
        link_key = (source, destination)
        if not self.topology.has_link(source, destination):
            raise RuntimeError(
                f"verifier on {source!r} addressed non-neighbor "
                f"{destination!r}"
            )
        if tuple(sorted(link_key)) in self._failed_links:
            return  # the physical link is down; TCP will stall -- drop
        latency = self.topology.link(source, destination).latency
        # The stamp is threaded to the delivery explicitly: the same
        # message instance may be stamped again for the next peer.
        clock = self.agents[source].stamp(destination, message)
        payload = encode_message(message)
        if self.strict_wire:
            message = decode_message(payload, self.factory)
        self.stats.record_transmit(source, destination, len(payload))
        arrival = max(
            when + latency, self._channel_clock.get(link_key, 0.0)
        )
        self._channel_clock[link_key] = arrival
        self.queue.schedule(
            max(arrival, self.queue.now),
            lambda: self._execute(
                destination,
                self.agents[destination].frame(source, message, clock),
            ),
        )

    # ------------------------------------------------------------------
    # workload operations (each returns the convergence time in seconds):
    # open window -> inject -> settle

    def _inject(
        self, devices: Iterable[str], event: str, *args: object, **fields: object
    ) -> None:
        """Record ``event`` on each device now and schedule its step
        there."""
        for device in devices:
            step = self.agents[device].event(event, *args, **fields)
            self.queue.schedule(
                self.queue.now, lambda d=device, s=step: self._execute(d, s)
            )

    def _settle(self, window: OpWindow) -> float:
        """Run to quiescence and close the operation window."""
        return self.close_op(window, self.run_to_quiescence() - window.start)

    def install_plan(self, plan_id: str, plan: Plan) -> float:
        return self.install_plans({plan_id: plan})

    def install_plans(self, plans: Dict[str, Plan]) -> float:
        """Distribute the plans' tasks (planner-side, untimed) as one
        burst and run to quiescence; returns the convergence time."""
        window = OpWindow(f"install_plans:{len(plans)}", self.queue.now)
        self.inject_plans(plans)
        return self._settle(window)

    def fib_update(self, device: str, mutate: Callable[[], None]) -> float:
        """Apply one rule update at ``device`` and verify incrementally."""
        window = OpWindow(f"fib_update:{device}", self.queue.now)
        mutate()
        self._inject((device,), "fib_update")
        return self._settle(window)

    def fail_link(self, a: str, b: str) -> float:
        """Fail link (a, b); both endpoints flood and the network recounts."""
        return self.fail_links(((a, b),))

    def fail_links(self, scene: Iterable[Tuple[str, str]]) -> float:
        """Fail every link of ``scene`` at once (a §6 fault scene): all
        go down, then each endpoint of each link floods and recounts."""
        links = list(scene)
        self._failed_links.update(tuple(sorted(link)) for link in links)
        label = "link_fail:" + ",".join(f"{a}-{b}" for a, b in links)
        window = OpWindow(label, self.queue.now)
        for link in links:
            self._inject(link, "link", link, False)
        return self._settle(window)

    def recover_link(self, a: str, b: str) -> float:
        self._failed_links.discard(tuple(sorted((a, b))))
        window = OpWindow(f"link_recover:{a}-{b}", self.queue.now)
        self._inject((a, b), "link", (a, b), True)
        return self._settle(window)

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
