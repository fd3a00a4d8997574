"""The device agent: one on-device verifier behind a sans-IO event API.

The paper's on-device agent (§5, §8) turns an event -- tasks installed,
FIB changed, link changed, peer lost, DVM frame received -- into frames
to send, whatever carries them.  :class:`DeviceAgent` is that agent:
it owns the device's :class:`~repro.dvm.verifier.OnDeviceVerifier`, its
:class:`~repro.obs.flight.FlightRecorder`, and is the only code that
knows the flight-causality protocol:

* :meth:`DeviceAgent.event` records an injected event (a row of
  :data:`EVENTS`) *now* and :meth:`DeviceAgent.frame` applies the
  Lamport receive rule and records ``frame_rx``; both return a
  :class:`Step` (a driver that queues received frames splits the
  latter into :meth:`~DeviceAgent.arrived` and
  :meth:`~DeviceAgent.handle`);
* calling the step runs the verifier entry point with that record as
  the flight *cause* of everything it records, and returns the frames
  to send; the driver that timed it writes the interval onto the same
  record (:meth:`Step.timed`);
* :meth:`DeviceAgent.stamp` ticks the clock into a frame that is really
  leaving and records ``frame_tx``, caused by the step that emitted it.

Clock stamping is unconditional, so the wire traffic is byte-identical
whether or not the recorder is enabled.  The backends are drivers: the
simulator decides *when* a step runs and what it costs, the TCP runtime
and the fleet worker move the frames over sockets.  What they share
beyond the agents -- the plan install, which installs plans that share
a DPVNet as one group (:func:`group_plans`), the verdict read-out and
the operation window -- is :class:`AgentBackend`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import (
    Callable,
    Deque,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
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
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import DIRECTION_OUT, KIND_COUNTING, install_dvm_schema
from repro.packetspace.predicate import Predicate, PredicateFactory
from repro.planner.tasks import Plan
from repro.topology.graph import Topology


class Event(NamedTuple):
    """One injectable event: what the verifier runs and how it is told."""

    #: The ``OnDeviceVerifier`` entry point the step calls with the
    #: event's arguments.
    method: str
    #: Span name of the step in a derived trace (its record's ``step``).
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
    __slots__ = ("_agent", "_cause", "_method", "_args")

    def __init__(
        self,
        agent: "DeviceAgent",
        cause: Optional[int],
        method: str,
        args: Tuple[object, ...],
    ) -> None:
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

    def timed(self, start: float, dur: float) -> None:
        """The driver ran the step at ``start`` (its recorder's time)
        for ``dur`` seconds: say so on the step's own flight record."""
        if self._cause is not None:
            self._agent.flight.annotate(self._cause, start=start, dur=dur)


class DeviceAgent:
    """A device's verifier and flight recorder."""

    def __init__(
        self,
        device: str,
        factory: PredicateFactory,
        fib: Fib,
        neighbors: Sequence[str],
        flight: FlightRecorder,
    ) -> None:
        self.device = device
        self.verifier = OnDeviceVerifier(device, factory, fib, neighbors)
        self.flight = self.verifier.flight = flight
        #: Flight seq behind the frames of the last step run.
        self._tx_cause: Optional[int] = None
        #: ``frame_rx`` seqs of frames that arrived and wait to be handled.
        self._arrivals: Deque[Optional[int]] = deque()

    def event(
        self, name: str, *args: object, cause: Optional[int] = None, **fields: object
    ) -> Step:
        """Record event ``name`` (a row of :data:`EVENTS`) now; the
        returned step runs its verifier method over ``args``.  ``cause``
        is the flight seq that led here (the session edge behind a peer
        loss); injected events have none.  ``fields`` go on the record
        only (an install's group ``members``)."""
        row = EVENTS[name]
        flight = self.flight
        if not flight.enabled:
            return Step(self, None, row.method, args)
        detail = row.detail.format(*args, device=self.device)
        flight.set_cause(cause)
        if row.kind:
            seq = flight.record(
                "admin", kind=row.kind, detail=detail, step=row.span, **fields
            )
        else:
            seq = flight.record(name, peer=detail, step=row.span)
            flight.snapshot(name, peer=detail)
        flight.clear_cause()
        return Step(self, seq, row.method, args)

    def frame(self, peer: str, message: Message, clock: int) -> Step:
        """A frame from ``peer`` stamped ``clock`` arrived: merge the
        clock (Lamport receive rule), record the arrival, and return the
        step that handles the message."""
        return Step(
            self, self._receive(peer, message, clock), "on_message", (message,)
        )

    def arrived(self, peer: str, message: Message, clock: int) -> None:
        """:meth:`frame` for a driver that queues what it receives: the
        arrival is recorded now, and :meth:`handle` -- called once per
        arrived frame, in arrival order -- returns the step.  (The step
        is made only then so that a frame waiting in a queue costs the
        driver one entry, not an object graph per frame.)"""
        self._arrivals.append(self._receive(peer, message, clock))

    def handle(self, message: Message) -> Step:
        """The step for the oldest frame that :meth:`arrived`."""
        return Step(self, self._arrivals.popleft(), "on_message", (message,))

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


#: ``device -> failed links`` of the devices whose failure set matches
#: none of a plan's fault scenes.
Unplanned = Dict[str, FrozenSet[Tuple[str, str]]]


def plan_holds(
    plan: Plan,
    verdicts: Sequence[RootVerdict],
    violations: Sequence[Violation],
    unplanned: Unplanned,
) -> bool:
    """True when every root region of the plan verifies; for local-mode
    (equal) plans, when no device reported a violation.  Never while a
    device is on an unplanned scene: its counts are the last scene's."""
    if unplanned:
        return False
    if plan.mode == "local":
        return not violations
    return bool(verdicts) and all(verdict.holds for verdict in verdicts)


_Regional = TypeVar("_Regional", RootVerdict, Violation)


def _restricted(
    items: Sequence[_Regional], plan_id: str, space: Predicate
) -> List[_Regional]:
    """A group's root verdicts or violations, as ``plan_id``'s: cut down
    to its packet ``space``."""
    kept: List[_Regional] = []
    for item in items:
        part = item.predicate & space
        if not part.is_empty:
            kept.append(replace(item, plan_id=plan_id, predicate=part))
    return kept


class PlanGroup(NamedTuple):
    """Plans of one install batch that give every device the same tasks."""

    #: The first member's id: the id the devices and their frames see.
    plan_id: str
    #: What the devices receive: the first member's plan over the union
    #: of the members' packet spaces (the first member itself when alone).
    plan: Plan
    members: Tuple[str, ...]


def group_plans(plans: Dict[str, Plan]) -> List[PlanGroup]:
    """Group ``plans`` by what their devices receive -- behavior, mode,
    count expressions, device tasks, roots and fault scenes -- in order of
    each group's first member.  Counting is per packet over one DPVNet,
    so a group's counts restricted to a member's packet space are that
    member's own (the paper's compounding of invariants, §4.3)."""
    by_shape: Dict[Hashable, List[str]] = {}
    for plan_id, plan in plans.items():
        shape = (
            plan.invariant.behavior,
            plan.mode,
            plan.count_exprs,
            tuple(sorted(plan.device_tasks.items())),
            tuple(sorted(plan.root_nodes.items())),
            plan.scenes,
        )
        by_shape.setdefault(shape, []).append(plan_id)
    groups: List[PlanGroup] = []
    for members in by_shape.values():
        plan = plans[members[0]]
        if len(members) > 1:
            space = plan.invariant.packet_space.factory.union(
                plans[member].invariant.packet_space for member in members
            )
            plan = replace(
                plan, invariant=replace(plan.invariant, packet_space=space)
            )
        groups.append(PlanGroup(members[0], plan, tuple(members)))
    return groups


class OpWindow(NamedTuple):
    """One open workload operation (injection to quiescence)."""

    label: str
    start: float  #: backend clock at open


class AgentBackend:
    """What every backend is under its transport: a device agent per
    hosted device, the plans installed on them, the verdict read-out
    and the operation window.  Operation times go into, and frames sent
    are read from, the DVM families of the backend's ``registry``
    (:func:`repro.obs.schema.install_dvm_schema`)."""

    #: Flight-dump label of the backend.
    backend = ""

    def __init__(
        self,
        topology: Topology,
        fibs: Dict[str, Fib],
        factory: PredicateFactory,
        registry: MetricsRegistry,
        flight: bool,
        flight_capacity: int,
        monotonic: Optional[Callable[[], float]] = None,
    ) -> None:
        """``monotonic`` is the backend clock, which times operation
        windows and steps and stamps every flight event (default:
        host-monotonic)."""
        self.topology = topology
        self.fibs = fibs
        self.factory = factory
        # Frames carry the Lamport clock either way, so the recorders
        # always exist; the flag only gates event recording.
        self.flight = flight
        self.flight_capacity = flight_capacity
        self._monotonic = monotonic
        self.agents: Dict[str, DeviceAgent] = {}
        #: The backend's own ring (no device name): operation windows.
        self.ops = self._recorder("")
        self._plans: Dict[str, Plan] = {}
        #: ``plan id -> (group id, its own packet space)`` of the members
        #: of groups of more than one.
        self._member_of: Dict[str, Tuple[str, Predicate]] = {}
        self.registry = registry
        self._families = install_dvm_schema(registry)

    def _recorder(self, device: str) -> FlightRecorder:
        return FlightRecorder(
            device,
            capacity=self.flight_capacity,
            enabled=self.flight,
            backend=self.backend,
            monotonic=self._monotonic,
        )

    def _spawn(self, device: str) -> DeviceAgent:
        """Create ``device``'s agent."""
        agent = self.agents[device] = DeviceAgent(
            device,
            self.factory,
            self.fibs[device],
            self.topology.neighbors(device),
            self._recorder(device),
        )
        return agent

    def close_op(self, window: OpWindow, elapsed: float) -> float:
        """Record the operation's injection-to-quiescence time."""
        self._families["convergence_seconds"].observe(elapsed)
        self.ops.record("op", label=window.label, start=window.start, dur=elapsed)
        return elapsed

    def frames_sent(self) -> Tuple[int, int]:
        """Counting frames and their wire bytes sent so far, all
        devices."""
        frames, nbytes = (
            int(
                self._families[name].total(
                    direction=DIRECTION_OUT, kind=KIND_COUNTING
                )
            )
            for name in ("dvm_messages_total", "dvm_bytes_total")
        )
        return frames, nbytes

    # -- installation ----------------------------------------------------------

    def _inject(
        self, devices: Iterable[str], event: str, *args: object, **fields: object
    ) -> None:
        """Record ``event`` on each (locally hosted) device and run its
        step there; ``fields`` go on the flight record."""
        raise NotImplementedError

    def inject_plans(self, plans: Dict[str, Plan]) -> None:
        """Install ``plans`` on their (locally hosted) devices: one
        install per :func:`group_plans` group, under its first member's
        id; the read-out answers for every member.

        Installing under an id replaces the devices' context of that id,
        so the members of an earlier group of that id that the batch does
        not name are installed again with it, to stay covered."""
        plans = dict(plans)
        while True:
            groups = group_plans(plans)
            ids = {group.plan_id for group in groups}
            left = [
                member
                for member, (group_id, _) in self._member_of.items()
                if group_id in ids and member not in plans
            ]
            if not left:
                break
            for member in left:
                plans[member] = self._plans[member]
        for group in groups:
            for member in group.members:
                self._plans[member] = plans[member]
                if len(group.members) > 1:
                    self._member_of[member] = (
                        group.plan_id,
                        plans[member].invariant.packet_space,
                    )
                else:
                    self._member_of.pop(member, None)
            self._inject(
                group.plan.devices(),
                "install",
                group.plan_id,
                group.plan,
                members=list(group.members),
            )

    # -- results -------------------------------------------------------------

    @property
    def verifiers(self) -> Dict[str, OnDeviceVerifier]:
        return {device: agent.verifier for device, agent in self.agents.items()}

    def verdicts(self, plan_id: str) -> List[RootVerdict]:
        group, space = self._member_of.get(plan_id, (plan_id, None))
        results: List[RootVerdict] = []
        for agent in self.agents.values():
            results.extend(agent.verifier.root_verdicts(group))
        return results if space is None else _restricted(results, plan_id, space)

    def all_violations(self) -> List[Violation]:
        return [
            violation
            for agent in self.agents.values()
            for violation in agent.verifier.violations
        ]

    def read_out(
        self, plan_id: str
    ) -> Tuple[List[RootVerdict], List[Violation], Unplanned]:
        """The plan's root verdicts, the violations reported for it and
        the devices on an unplanned scene -- for a member of a group, the
        group's, restricted to the member's packet space."""
        group, space = self._member_of.get(plan_id, (plan_id, None))
        unplanned: Unplanned = {}
        for device, agent in self.agents.items():
            links = agent.verifier.unplanned_links(group)
            if links is not None:
                unplanned[device] = links
        violations = [
            violation
            for violation in self.all_violations()
            if violation.plan_id == group
        ]
        if space is not None:
            violations = _restricted(violations, plan_id, space)
        return self.verdicts(plan_id), violations, unplanned

    def holds(self, plan_id: str) -> bool:
        return plan_holds(self._plans[plan_id], *self.read_out(plan_id))

    def flight_dump(self) -> Dict[str, Dict[str, object]]:
        """Flight-recorder dumps by device, the backend's operation ring
        under ``""`` (empty rings when disabled)."""
        dumps = {"": self.ops.dump()}
        for device, agent in sorted(self.agents.items()):
            dumps[device] = agent.flight.dump()
        return dumps
