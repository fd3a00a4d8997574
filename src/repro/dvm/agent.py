"""The device agent: one on-device verifier behind a sans-IO event API.

The paper's on-device agent (§5, §8) turns an event -- tasks installed,
FIB changed, link changed, peer lost, DVM frame received -- into frames
to send, whatever carries them.  :class:`DeviceAgent` is that agent:
it owns the device's :class:`~repro.dvm.verifier.OnDeviceVerifier`, its
:class:`~repro.obs.flight.FlightRecorder` and the tracer hook, and is
the only code that knows the flight-causality protocol:

* :meth:`DeviceAgent.event` records an injected event (a row of
  :data:`EVENTS`) *now* and :meth:`DeviceAgent.frame` applies the
  Lamport receive rule and records ``frame_rx``; both return a
  :class:`Step` (a driver that queues received frames splits the
  latter into :meth:`~DeviceAgent.arrived` and
  :meth:`~DeviceAgent.handle`);
* calling the step runs the verifier entry point with that record as
  the flight *cause* of everything it records, and returns the frames
  to send;
* :meth:`DeviceAgent.stamp` ticks the clock into a frame that is really
  leaving and records ``frame_tx``, caused by the step that emitted it.

Clock stamping is unconditional, so the wire traffic is byte-identical
whether or not the recorder is enabled.  The backends are drivers: the
simulator decides *when* a step runs and what it costs, the TCP runtime
and the fleet worker move the frames over sockets.  What they share
beyond the agents -- the verdict read-out and the operation window --
is :class:`AgentBackend`.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Callable,
    Deque,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.dataplane.fib import Fib
from repro.dvm.messages import Message, OpenMessage, message_kind
from repro.dvm.verifier import (
    OnDeviceVerifier,
    Outgoing,
    RootVerdict,
    Violation,
)
from repro.obs.flight import FlightRecorder
from repro.obs.trace import CAT_OP, NULL_TRACER, Tracer
from repro.packetspace.predicate import PredicateFactory
from repro.planner.tasks import Plan
from repro.topology.graph import Topology


class Event(NamedTuple):
    """One injectable event: what the verifier runs and how it is told."""

    #: The ``OnDeviceVerifier`` entry point the step calls with the
    #: event's arguments.
    method: str
    #: Tracer span name of the step.
    span: str
    #: Flight ``admin`` kind; empty for an event that is not an
    #: administrative action and is recorded under its own name.
    kind: str
    #: Flight detail, formatted over the event's arguments.
    detail: str


#: Every event a driver can inject (``docs/OBSERVABILITY.md`` lists the
#: same rows).  A detected peer loss is not an admin action: it is
#: recorded as ``peer_down``, chained to the session edge behind it, and
#: freezes the ring tail.
EVENTS: Dict[str, Event] = {
    "install": Event("install_plan", "install_plan", "install", "{0}"),
    "fib_burst": Event("on_fib_changed", "fib_changed", "fib_burst", ""),
    "fib_update": Event("on_fib_changed", "fib_changed", "fib_update", "{device}"),
    "link": Event("on_link_event", "link_event", "link", "{0[0]}-{0[1]} up={1}"),
    "peer_down": Event("on_peer_down", "peer_down", "", "{0}"),
}

#: "recv <KIND>" span names by message type (formatting one per frame
#: would dominate the tracing hot path).
_RECV_NAMES: Dict[type, str] = {}


class Step:
    """One unit of device work, ready to run.

    Calling it runs the verifier entry point under the flight cause of
    the event that triggered it and returns the frames to send; the
    driver decides when that happens and hands each frame it really
    sends to :meth:`DeviceAgent.stamp`.
    """

    # One is made per event and per frame handled, so it is one small
    # object: the entry point by name (looked up when the step runs),
    # not a bound method or a closure.
    __slots__ = ("name", "_agent", "_cause", "_method", "_args")

    def __init__(
        self,
        agent: "DeviceAgent",
        name: str,
        cause: Optional[int],
        method: str,
        args: Tuple[object, ...],
    ) -> None:
        self.name = name
        self._agent = agent
        self._cause = cause
        self._method = method
        self._args = args

    def __call__(self) -> Outgoing:
        agent = self._agent
        cause = agent._tx_cause = self._cause
        run: Callable[..., Outgoing] = getattr(agent.verifier, self._method)
        if cause is None:
            return run(*self._args)
        flight = agent.flight
        flight.set_cause(cause)
        try:
            return run(*self._args)
        finally:
            flight.clear_cause()


class DeviceAgent:
    """A device's verifier, flight recorder and tracer hook."""

    def __init__(
        self,
        device: str,
        factory: PredicateFactory,
        fib: Fib,
        neighbors: Sequence[str],
        flight: FlightRecorder,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.device = device
        self.verifier = OnDeviceVerifier(device, factory, fib, neighbors)
        self.verifier.tracer = tracer
        self.flight = self.verifier.flight = flight
        #: Flight seq behind the frames of the last step run.
        self._tx_cause: Optional[int] = None
        #: ``frame_rx`` seqs of frames that arrived and wait to be handled.
        self._arrivals: Deque[Optional[int]] = deque()

    def event(
        self, name: str, *args: object, cause: Optional[int] = None
    ) -> Step:
        """Record event ``name`` (a row of :data:`EVENTS`) now; the
        returned step runs its verifier method over ``args``.  ``cause``
        is the flight seq that led here (the session edge behind a peer
        loss); injected events have none."""
        row = EVENTS[name]
        flight = self.flight
        if not flight.enabled:
            return Step(self, row.span, None, row.method, args)
        detail = row.detail.format(*args, device=self.device)
        flight.set_cause(cause)
        if row.kind:
            seq = flight.record("admin", kind=row.kind, detail=detail)
        else:
            seq = flight.record(name, peer=detail)
            flight.snapshot(name, peer=detail)
        flight.clear_cause()
        return Step(self, row.span, seq, row.method, args)

    def frame(self, peer: str, message: Message, clock: int) -> Step:
        """A frame from ``peer`` stamped ``clock`` arrived: merge the
        clock (Lamport receive rule), record the arrival, and return the
        step that handles the message."""
        return self._handling(message, self._receive(peer, message, clock))

    def arrived(self, peer: str, message: Message, clock: int) -> None:
        """:meth:`frame` for a driver that queues what it receives: the
        arrival is recorded now, and :meth:`handle` -- called once per
        arrived frame, in arrival order -- returns the step.  (The step
        is made only then so that a frame waiting in a queue costs the
        driver one entry, not an object graph per frame.)"""
        self._arrivals.append(self._receive(peer, message, clock))

    def handle(self, message: Message) -> Step:
        """The step for the oldest frame that :meth:`arrived`."""
        return self._handling(message, self._arrivals.popleft())

    def _receive(self, peer: str, message: Message, clock: int) -> Optional[int]:
        flight = self.flight
        flight.clock.observe(clock)
        if not flight.enabled:
            return None
        return flight.record(
            "frame_rx",
            kind=message_kind(message),
            peer=peer,
            plan=message.plan_id,
            clock=clock,
        )

    def _handling(self, message: Message, cause: Optional[int]) -> Step:
        name = _RECV_NAMES.get(type(message))
        if name is None:
            name = _RECV_NAMES[type(message)] = f"recv {message_kind(message)}"
        return Step(self, name, cause, "on_message", (message,))

    def refresh(self, peer: str) -> Outgoing:
        """The session to ``peer`` (re-)established: an OPEN per
        installed plan makes it refresh our state.  Nothing the device
        handled caused these frames."""
        self._tx_cause = None
        return [
            (peer, OpenMessage(plan_id=plan_id, device=self.device))
            for plan_id in self.verifier.plan_ids
        ]

    def stamp(self, peer: str, message: Message) -> int:
        """``message`` is leaving for ``peer``: tick the Lamport clock,
        write it into the frame header field and record ``frame_tx``.

        One message instance can fan out to several peers (link-state
        floods), each send getting its own stamp, so the caller encodes
        (or keeps the returned clock) before the next one.
        """
        flight = self.flight
        clock = flight.clock.tick()
        object.__setattr__(message, "clock", clock)
        if flight.enabled:
            flight.set_cause(self._tx_cause)
            flight.record(
                "frame_tx",
                kind=message_kind(message),
                peer=peer,
                plan=message.plan_id,
                clock=clock,
            )
            flight.clear_cause()
        return clock


def plan_holds(
    plan: Plan, verdicts: Sequence[RootVerdict], violations: Sequence[Violation]
) -> bool:
    """True when every root region of the plan verifies; for local-mode
    (equal) plans, when no device reported a violation."""
    if plan.mode == "local":
        return not violations
    return bool(verdicts) and all(verdict.holds for verdict in verdicts)


class OpWindow(NamedTuple):
    """One open workload operation (injection to quiescence)."""

    label: str
    start: float  #: backend clock at open
    span: Optional[int]  #: op span id the injected steps parent to
    trace_start: float  #: tracer clock at open


class AgentBackend:
    """What every backend is under its transport: a device agent per
    hosted device, the plans installed on them, the verdict read-out
    and the traced operation window."""

    #: Flight-dump label of the backend.
    backend = ""

    def __init__(
        self,
        topology: Topology,
        fibs: Dict[str, Fib],
        factory: PredicateFactory,
        tracer: Optional[Tracer],
        record_convergence: Callable[[float], None],
        flight: bool,
        flight_capacity: int,
    ) -> None:
        self.topology = topology
        self.fibs = fibs
        self.factory = factory
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Frames carry the Lamport clock either way, so the recorders
        # always exist; the flag only gates event recording.
        self.flight_enabled = flight
        self.flight_capacity = flight_capacity
        self.agents: Dict[str, DeviceAgent] = {}
        self._plans: Dict[str, Plan] = {}
        self._record_convergence = record_convergence

    def _spawn(
        self, device: str, monotonic: Optional[Callable[[], float]] = None
    ) -> DeviceAgent:
        """Create ``device``'s agent (``monotonic`` is the recorder's
        time source; default host-monotonic)."""
        agent = self.agents[device] = DeviceAgent(
            device,
            self.factory,
            self.fibs[device],
            self.topology.neighbors(device),
            FlightRecorder(
                device,
                capacity=self.flight_capacity,
                enabled=self.flight_enabled,
                backend=self.backend,
                monotonic=monotonic,
            ),
            self.tracer,
        )
        return agent

    # -- operation window ----------------------------------------------------

    def open_op(
        self, label: str, now: float, trace_now: Optional[float] = None
    ) -> OpWindow:
        """Start a (traced) verification session at backend time ``now``.

        The op span id is allocated up front so every step the
        operation injects can parent to it; the span itself is recorded
        by :meth:`close_op`."""
        span: Optional[int] = None
        if self.tracer.enabled:
            self.tracer.begin_operation(label)
            span = self.tracer.next_id()
        return OpWindow(label, now, span, now if trace_now is None else trace_now)

    def close_op(self, window: OpWindow, elapsed: float) -> float:
        """Record the operation's injection-to-quiescence time."""
        self._record_convergence(elapsed)
        if window.span is not None:
            self.tracer.record_span(
                window.label,
                start=window.trace_start,
                end=window.trace_start + elapsed,
                cat=CAT_OP,
                span_id=window.span,
                attrs={"convergence_seconds": elapsed},
            )
        return elapsed

    # -- results -------------------------------------------------------------

    @property
    def verifiers(self) -> Dict[str, OnDeviceVerifier]:
        return {device: agent.verifier for device, agent in self.agents.items()}

    def verdicts(self, plan_id: str) -> List[RootVerdict]:
        results: List[RootVerdict] = []
        for agent in self.agents.values():
            results.extend(agent.verifier.root_verdicts(plan_id))
        return results

    def all_violations(self) -> List[Violation]:
        return [
            violation
            for agent in self.agents.values()
            for violation in agent.verifier.violations
        ]

    def read_out(self, plan_id: str) -> Tuple[List[RootVerdict], List[Violation]]:
        """The plan's root verdicts and the violations reported for it."""
        return self.verdicts(plan_id), [
            violation
            for violation in self.all_violations()
            if violation.plan_id == plan_id
        ]

    def holds(self, plan_id: str) -> bool:
        return plan_holds(self._plans[plan_id], *self.read_out(plan_id))

    def flight_dump(self) -> Dict[str, Dict[str, object]]:
        """Per-device flight-recorder dumps (empty rings when disabled)."""
        return {
            device: agent.flight.dump()
            for device, agent in sorted(self.agents.items())
        }
