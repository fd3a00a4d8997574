"""The on-device verifier: event-driven counting with the DVM protocol.

One :class:`OnDeviceVerifier` runs per network device.  It keeps the
device's LEC table and, per installed plan, per-DPVNet-node CIB state.
Every entry point (``install_plan``, ``on_message``, ``on_fib_changed``,
``on_link_event``) returns the list of ``(neighbor_device, message)``
pairs to transmit -- the verifier is transport-agnostic; the simulator
(or a real TCP agent) owns delivery.

Counting follows Equations (1)/(2) per LEC x CIBIn refinement: the
tracked packet space is partitioned into regions where both the local
action and every relevant downstream count are constant; each region gets
one LocCIB entry whose causality records the exact downstream inputs, so
a neighbor's UPDATE identifies affected entries precisely (§5.2 step 2):
``_on_update`` recounts where the entries naming the sender meet the
region of CIBIn whose count changed, and nowhere when there is none.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.counting.counts import CountSet, cross_sum_all, union_all
from repro.dataplane.actions import ANY, Action, Forward
from repro.dataplane.fib import Fib
from repro.dataplane.lec import (
    LecTable,
    apply_lec_update,
    build_lec_table,
    diff_lec_tables,
)
from repro.dvm.cib import CibIn, CibOut, LocCib, LocEntry
from repro.dvm.linkstate import LinkStateDatabase, LinkStateMessage
from repro.dvm.messages import (
    KeepaliveMessage,
    Message,
    OpenMessage,
    SubscribeMessage,
    UpdateMessage,
)
from repro.obs.flight import NULL_RECORDER, FlightRecorder
from repro.packetspace.index import PredicateIndex
from repro.packetspace.predicate import Predicate, PredicateFactory
from repro.packetspace.transform import Rewrite
from repro.planner.tasks import DeviceTask, NodeTask, Plan

Outgoing = List[Tuple[str, Message]]


@dataclass(frozen=True)
class Violation:
    """A locally detected invariant violation."""

    plan_id: str
    device: str
    node_id: str
    predicate: Predicate
    reason: str


@dataclass(frozen=True)
class RootVerdict:
    """The verification result for one packet region at one ingress."""

    plan_id: str
    ingress: str
    predicate: Predicate
    counts: CountSet
    holds: bool


class _NodeState:
    """Per-DPVNet-node verifier state."""

    __slots__ = (
        "task", "cib_in", "loc", "out", "interest", "rewrite_children", "order",
    )

    def __init__(self, task: NodeTask, interest: Predicate) -> None:
        self.task = task
        self.cib_in: Dict[str, CibIn] = {
            child_id: CibIn() for (child_id, _, _) in task.children
        }
        self.loc = LocCib()
        self.out = CibOut()
        self.interest = interest
        #: child node ids we have subscribed transformed predicates on.
        self.rewrite_children: Set[str] = set()
        #: (plan install sequence, bottom-up position): the recount order.
        self.order: Tuple[int, int] = (0, 0)


class _PlanContext:
    """All verifier state for one installed plan."""

    __slots__ = (
        "plan_id",
        "plan",
        "task",
        "nodes",
        "bottom_up",
        "sequence",
        "scene_index",
        "unplanned",
    )

    def __init__(
        self, plan_id: str, plan: Plan, task: DeviceTask, sequence: int
    ) -> None:
        self.plan_id = plan_id
        self.plan = plan
        self.task = task
        self.nodes: Dict[str, _NodeState] = {
            node.node_id: _NodeState(node, plan.invariant.packet_space)
            for node in task.nodes
        }
        # This device's node states, children before parents: a device
        # can host several chained DPVNet nodes, and processing bottom-up
        # makes one pass sufficient for local cascades.
        order = {
            node.node_id: position
            for position, node in enumerate(plan.dpvnet.topo_order)
        }
        self.bottom_up: Tuple[_NodeState, ...] = tuple(
            sorted(
                self.nodes.values(),
                key=lambda state: order.get(state.task.node_id, 0),
                reverse=True,
            )
        )
        self.sequence = sequence
        for position, state in enumerate(self.bottom_up):
            state.order = (sequence, position)
        self.scene_index: Optional[int] = 0
        #: The failed links, while they match no planned scene.
        self.unplanned: Optional[FrozenSet[Tuple[str, str]]] = None


def _in_plan(
    handler: Callable[["OnDeviceVerifier", _PlanContext, Any], Outgoing],
) -> Callable[["OnDeviceVerifier", Any], Outgoing]:
    """A frame handler that drops frames of a plan not installed here."""

    def dispatch(self: "OnDeviceVerifier", message: Message) -> Outgoing:
        context = self._contexts.get(message.plan_id)
        return [] if context is None else handler(self, context, message)

    return dispatch


class OnDeviceVerifier:
    """The verification agent running on one device (paper Figure 9)."""

    def __init__(
        self,
        device: str,
        factory: PredicateFactory,
        fib: Fib,
        neighbors: Sequence[str] = (),
    ) -> None:
        self.device = device
        self.factory = factory
        self.fib = fib
        self.neighbors = tuple(neighbors)
        self.lec: LecTable = build_lec_table(fib, factory)
        fib.consume_dirty()  # the initial build covers everything so far
        self.linkstate = LinkStateDatabase()
        self._contexts: Dict[str, _PlanContext] = {}
        self._sequence = itertools.count()
        #: Counting-mode node states by interest: a rule update visits the
        #: ones its changed region can overlap, not every node of every plan.
        self._by_interest: PredicateIndex[Tuple[_PlanContext, _NodeState]] = (
            PredicateIndex()
        )
        #: ``local``-mode contexts; every rule update re-runs their checks.
        self._local: Dict[str, _PlanContext] = {}
        self.violations: List[Violation] = []
        #: Frames handled, for the §9.4 microbenchmarks.
        self.messages_received = 0
        #: Flight-recorder hook: the owning device agent swaps in the
        #: device's recorder so CIB deltas and verdict transitions land
        #: in the forensic ring buffer.
        self.flight: FlightRecorder = NULL_RECORDER
        #: Last known root verdict per (plan_id, node_id) -- transition
        #: detection for the flight recorder's ``verdict`` events.
        self._verdict_holds: Dict[Tuple[str, str], bool] = {}

    # ------------------------------------------------------------------
    # plan installation

    def install_plan(self, plan_id: str, plan: Plan) -> Outgoing:
        """Install this device's task for ``plan`` and start counting."""
        task = plan.device_tasks.get(self.device)
        if task is None:
            return []
        previous = self._contexts.get(plan_id)
        if previous is None:
            sequence = next(self._sequence)
        else:  # a re-install keeps the plan's place in the recount order
            sequence = previous.sequence
            self._forget(previous)
        context = _PlanContext(plan_id, plan, task, sequence)
        self._contexts[plan_id] = context
        # One OPEN per peer device: the peer's refresh already covers
        # every node of it that has a parent here (_on_open).
        peers = dict.fromkeys(
            child_dev for node in task.nodes for (_, child_dev, _) in node.children
        )
        outgoing: Outgoing = [
            (peer, OpenMessage(plan_id=plan_id, device=self.device))
            for peer in peers
        ]
        if plan.mode == "local":
            self._local[plan_id] = context
            self._run_local_checks(context)
            return outgoing
        for state in context.bottom_up:
            self._by_interest.add(state.interest, (context, state))
            outgoing.extend(self._recompute(context, state, state.interest))
        return outgoing

    def _forget(self, context: _PlanContext) -> None:
        """Drop what is kept about ``context`` outside of it."""
        self._local.pop(context.plan_id, None)
        for state in context.bottom_up:
            self._by_interest.discard(state.interest, (context, state))
        self._drop_violations(context.plan_id)

    # ------------------------------------------------------------------
    # event entry points

    def on_message(self, message: Message) -> Outgoing:
        """Handle one received DVM message."""
        self.messages_received += 1
        return self._HANDLERS[type(message)](self, message)

    def on_fib_changed(self) -> Outgoing:
        """Recompute after local rule updates (the incremental-DPV path).

        Refreshes the LEC table only within the updated rules' region
        (``Fib.consume_dirty``) and recounts only classes whose action
        actually changed -- the reason most updates touch a handful of
        devices (§9.3.3) -- at only the plan nodes whose interest the
        changed region can reach, found through the interest index.
        """
        dirty = self.fib.consume_dirty()
        if dirty is None:
            return []  # nothing changed since the last refresh
        if dirty.is_full:
            old = self.lec
            self.lec = build_lec_table(self.fib, self.factory)
            changes = diff_lec_tables(old, self.lec)
        else:
            self.lec, changes = apply_lec_update(
                self.lec, self.fib, self.factory, dirty
            )
        if not changes:
            return []
        changed_region = self.factory.union(
            predicate for (predicate, _, _) in changes
        )
        for context in self._local.values():
            self._run_local_checks(context)  # emits no frames
        # Exactly the node states whose affected region can be non-empty
        # (see _affected_region), in plan install order, bottom-up.
        touched = set(self._by_interest.candidates(changed_region))
        for entry in self.lec.entries:
            action = entry.action
            if isinstance(action, Forward) and action.rewrite is not None:
                touched.update(
                    self._by_interest.candidates(
                        entry.predicate & action.rewrite.inverse(changed_region)
                    )
                )
        outgoing: Outgoing = []
        for context, state in sorted(touched, key=lambda hit: hit[1].order):
            region = self._affected_region(state, changed_region)
            outgoing.extend(self._recompute(context, state, region))
        return outgoing

    def on_link_event(self, link: Tuple[str, str], up: bool) -> Outgoing:
        """A locally attached link failed or recovered; flood and recount."""
        outgoing: Outgoing = []
        advertisement = None
        for plan_id in self._contexts:
            advertisement = self.linkstate.local_event(
                plan_id, self.device, link, up
            )
            break
        if advertisement is None:
            advertisement = self.linkstate.local_event("", self.device, link, up)
        for neighbor in self.neighbors:
            outgoing.append((neighbor, advertisement))
        outgoing.extend(self._apply_failures())
        return outgoing

    # ------------------------------------------------------------------
    # results

    @property
    def plan_ids(self) -> List[str]:
        """The installed plans, in install order."""
        return list(self._contexts)

    def root_verdicts(self, plan_id: str) -> List[RootVerdict]:
        """Per-region verdicts at DPVNet source nodes hosted on this device."""
        context = self._contexts.get(plan_id)
        if context is None:
            return []
        verdicts: List[RootVerdict] = []
        for state in context.nodes.values():
            if not state.task.is_root_for:
                continue
            for ingress in state.task.is_root_for:
                if ingress != self.device:
                    continue
                for predicate, counts in state.loc.lookup(state.interest):
                    verdicts.append(
                        RootVerdict(
                            plan_id=plan_id,
                            ingress=ingress,
                            predicate=predicate,
                            counts=counts,
                            holds=context.plan.holds(counts),
                        )
                    )
        return verdicts

    def unplanned_links(self, plan_id: str) -> Optional[FrozenSet[Tuple[str, str]]]:
        """The failed links this device sees, while they match none of the
        plan's scenes (its counts then describe a topology that is gone)."""
        context = self._contexts.get(plan_id)
        return None if context is None else context.unplanned

    # ------------------------------------------------------------------
    # message handlers

    def _on_update(self, context: _PlanContext, message: UpdateMessage) -> Outgoing:
        state = context.nodes.get(message.up_node)
        if state is None:
            return []
        cib = state.cib_in.get(message.down_node)
        if cib is None:
            return []
        if self.flight.enabled:
            self.flight.record(
                "cib_delta",
                plan=context.plan_id,
                up=message.up_node,
                down=message.down_node,
                withdrawn=len(message.withdrawn),
                results=len(message.results),
            )
        changed = cib.apply(
            message.withdrawn, message.results, CountSet.zero(context.plan.dim)
        )
        if changed is None:
            return []  # a refresh of what CIBIn already held
        region = self._read_region(state, message.down_node, changed)
        if region is None:
            return []  # nothing here reads what changed
        return self._recompute(context, state, region)

    def _read_region(
        self, state: _NodeState, child_id: str, changed: Predicate
    ) -> Optional[Predicate]:
        """Where this node's counts were computed from ``child_id``'s
        counts over ``changed`` -- §5.2 step 2: the LocCIB entries whose
        causality names the child, met with ``changed`` (through the
        inverse of the entry's rewrite, which is how it reads the child).
        Everything else would recount to what it holds and emit nothing.
        """
        region: Optional[Predicate] = None
        for entry in state.loc.entries:
            action = entry.action
            if child_id not in entry.causality or not isinstance(action, Forward):
                continue
            part = entry.predicate & (
                changed
                if action.rewrite is None
                else action.rewrite.inverse(changed)
            )
            if not part.is_empty:
                region = part if region is None else region | part
        return region

    def _on_subscribe(
        self, context: _PlanContext, message: SubscribeMessage
    ) -> Outgoing:
        state = context.nodes.get(message.down_node)
        if state is None:
            return []
        extra = message.transformed - state.interest
        if extra.is_empty:
            return []
        self._by_interest.discard(state.interest, (context, state))
        state.interest = state.interest | extra
        self._by_interest.add(state.interest, (context, state))
        return self._recompute(context, state, extra)

    def _on_open(self, context: _PlanContext, message: OpenMessage) -> Outgoing:
        """Session (re-)establishment: refresh the peer's view.

        When an upstream neighbor's verifier (re)opens its session -- a
        fresh start or a crash recovery -- it has no counting state from
        us.  Every node with a parent on that device resends its full
        current results for the link, honoring the protocol principle
        (withdrawn union == incoming union).
        """
        peer = message.device
        outgoing: Outgoing = []
        for state in context.bottom_up:
            if not any(dev == peer for (_, dev) in state.task.parents):
                continue
            fresh = state.loc.lookup(state.interest)
            if not fresh:
                continue
            if context.plan.mode == "minimal" and context.plan.count_exprs[0]:
                count_expr = context.plan.count_exprs[0]
                fresh = [
                    (predicate, counts.minimal_info(count_expr))
                    for predicate, counts in fresh
                ]
            for parent_id, parent_dev in state.task.parents:
                if parent_dev != peer:
                    continue
                outgoing.append(
                    (
                        peer,
                        UpdateMessage(
                            plan_id=context.plan_id,
                            up_node=parent_id,
                            down_node=state.task.node_id,
                            withdrawn=(state.interest,),
                            results=tuple(fresh),
                        ),
                    )
                )
        return outgoing

    def on_peer_down(self, peer: str) -> Outgoing:
        """The DVM session to ``peer`` was lost.

        All counting state received from that device becomes untrusted:
        the affected CIBIn tables are cleared (their regions fall back to
        the unknown/zero default) and the nodes recount.  When the peer
        comes back, its OPEN triggers a full refresh (:meth:`_on_open`).
        """
        outgoing: Outgoing = []
        for context in self._contexts.values():
            if context.plan.mode == "local":
                continue
            for state in context.bottom_up:
                lost = [
                    child_id
                    for (child_id, child_dev, _) in state.task.children
                    if child_dev == peer
                ]
                if not lost:
                    continue
                for child_id in lost:
                    state.cib_in[child_id] = CibIn()
                outgoing.extend(
                    self._recompute(context, state, state.interest)
                )
        return outgoing

    def _on_linkstate(self, message: LinkStateMessage) -> Outgoing:
        if not self.linkstate.observe(message):
            return []  # already known: stop the flood
        outgoing: Outgoing = [
            (neighbor, message) for neighbor in self.neighbors
        ]
        outgoing.extend(self._apply_failures())
        return outgoing

    def _apply_failures(self) -> Outgoing:
        """Re-derive the active scene from the failure set and recount."""
        failed = self.linkstate.failed_links
        outgoing: Outgoing = []
        for context in self._contexts.values():
            new_index: Optional[int] = None
            for index, scene in enumerate(context.plan.scenes):
                if scene.failed == failed:
                    new_index = index
                    break
            if new_index is None and not failed:
                new_index = 0
            if new_index is None and len(context.plan.scenes) == 1:
                # No planned scenes (concrete-filter invariant): stay on
                # the intact DPVNet and let edge-aliveness zero the counts
                # across failed links (Prop. 2, concrete case).
                new_index = 0
            if new_index is None:
                # Counts stay those of the last scene, which no longer
                # exists: the plan reads not-holding until one does.
                if context.unplanned != failed:
                    context.unplanned = failed
                    self.flight.record(
                        "unplanned",
                        plan=context.plan_id,
                        links=sorted(f"{a}-{b}" for a, b in failed),
                    )
                continue
            context.unplanned = None
            context.scene_index = new_index
            if context.plan.mode == "local":
                self._run_local_checks(context)
                continue
            # Recount: even with an unchanged scene index the edge
            # aliveness may have changed (concrete-filter mode).
            for state in context.bottom_up:
                outgoing.extend(self._recompute(context, state, state.interest))
        return outgoing

    #: The handler of each frame kind of the wire schema
    #: (``repro.dvm.messages.ROWS``).  Link state floods whatever plans
    #: are installed; the counting frames need theirs.
    _HANDLERS: Dict[type, Callable[["OnDeviceVerifier", Any], Outgoing]] = {
        LinkStateMessage: _on_linkstate,
        UpdateMessage: _in_plan(_on_update),
        SubscribeMessage: _in_plan(_on_subscribe),
        OpenMessage: _in_plan(_on_open),
        KeepaliveMessage: lambda self, message: [],  # no counting state
    }

    # ------------------------------------------------------------------
    # counting core

    def _affected_region(self, state: _NodeState, affected: Predicate) -> Predicate:
        """Map a downstream-affected region into this node's packet space.

        Identity except for LEC classes that rewrite headers: packets in
        the pre-image of the affected transformed region are affected too.
        """
        region = state.interest & affected
        for entry in self.lec.entries:
            action = entry.action
            if isinstance(action, Forward) and action.rewrite is not None:
                pre = entry.predicate & state.interest
                if pre.is_empty:
                    continue
                back = pre & action.rewrite.inverse(affected)
                if not back.is_empty:
                    region = region | back
        return region

    def _edge_usable(
        self, context: _PlanContext, state: _NodeState, child_id: str
    ) -> bool:
        """Edge active in the current scene and physically alive."""
        scene_index = context.scene_index or 0
        for (node_id, child_dev, labels) in state.task.children:
            if node_id != child_id:
                continue
            if not any(scene == scene_index for (_, scene) in labels):
                return False
            link = tuple(sorted((self.device, child_dev)))
            return link not in self.linkstate.failed_links
        return False

    def _recompute(
        self, context: _PlanContext, state: _NodeState, region: Predicate
    ) -> Outgoing:
        """Recount ``region`` at one node and emit the resulting UPDATEs."""
        region = region & state.interest
        if region.is_empty:
            return []
        plan = context.plan
        dim = plan.dim
        scene_index = context.scene_index or 0
        children_by_dev = {
            child_dev: child_id for (child_id, child_dev, _) in state.task.children
        }

        state.loc.remove_overlapping(region)
        outgoing: Outgoing = []

        for class_predicate, action in self.lec.classes_overlapping(region):
            if action.is_deliver:
                components = state.task.accepts_in_scene(scene_index)
                counts = (
                    CountSet.delivered(dim, components)
                    if components
                    else CountSet.zero(dim)
                )
                state.loc.insert(LocEntry(class_predicate, counts, action, {}))
                continue
            if action.is_drop or not isinstance(action, Forward):
                state.loc.insert(
                    LocEntry(class_predicate, CountSet.zero(dim), action, {})
                )
                continue

            usable: List[str] = []
            missing = False
            for hop in action.next_hops:
                child_id = children_by_dev.get(hop)
                if child_id is not None and self._edge_usable(
                    context, state, child_id
                ):
                    usable.append(child_id)
                else:
                    missing = True

            if not usable:
                state.loc.insert(
                    LocEntry(class_predicate, CountSet.zero(dim), action, {})
                )
                continue

            rewrite = action.rewrite
            if rewrite is not None:
                outgoing.extend(
                    self._ensure_subscriptions(
                        context, state, usable, class_predicate, rewrite
                    )
                )

            # Refine the class into regions with constant downstream inputs.
            parts: List[Tuple[Predicate, Dict[str, CountSet]]] = [
                (class_predicate, {})
            ]
            default = CountSet.zero(dim)
            for child_id in usable:
                refined: List[Tuple[Predicate, Dict[str, CountSet]]] = []
                for predicate, inputs in parts:
                    lookup_region = (
                        rewrite.apply(predicate) if rewrite else predicate
                    )
                    for sub, counts in state.cib_in[child_id].lookup(
                        lookup_region, default
                    ):
                        back = (
                            predicate & rewrite.inverse(sub)
                            if rewrite
                            else predicate & sub
                        )
                        if back.is_empty:
                            continue
                        new_inputs = dict(inputs)
                        new_inputs[child_id] = counts
                        refined.append((back, new_inputs))
                parts = refined

            for predicate, inputs in parts:
                counts = _combine(action, inputs, missing, dim)
                state.loc.insert(LocEntry(predicate, counts, action, inputs))

        outgoing.extend(self._emit_updates(context, state, region))
        if self.flight.enabled and self.device in state.task.is_root_for:
            self._check_verdict(context, state)
        return outgoing

    def _check_verdict(
        self, context: _PlanContext, state: _NodeState
    ) -> None:
        """Record a flight ``verdict`` event when a root verdict flips.

        Only runs with the flight recorder enabled, and only on nodes
        that are verification roots for *this* device -- the same filter
        as :meth:`root_verdicts`, so the recorded transitions are
        exactly the externally visible ones.  A flip to violated also
        snapshots the ring tail (evidence survives further wrap).
        """
        holds = True
        for _, counts in state.loc.lookup(state.interest):
            if not context.plan.holds(counts):
                holds = False
                break
        key = (context.plan_id, state.task.node_id)
        previous = self._verdict_holds.get(key)
        if previous == holds:
            return
        self._verdict_holds[key] = holds
        self.flight.record(
            "verdict",
            plan=context.plan_id,
            node=state.task.node_id,
            holds=holds,
            prev=previous,
        )
        if not holds:
            self.flight.snapshot(
                "verdict_violation",
                plan=context.plan_id,
                node=state.task.node_id,
            )

    def _ensure_subscriptions(
        self,
        context: _PlanContext,
        state: _NodeState,
        child_ids: Sequence[str],
        original: Predicate,
        rewrite: Rewrite,
    ) -> Outgoing:
        """SUBSCRIBE children to the transformed predicate (once per child)."""
        outgoing: Outgoing = []
        transformed = rewrite.apply(original)
        child_devs = {
            child_id: child_dev
            for (child_id, child_dev, _) in state.task.children
        }
        for child_id in child_ids:
            key = child_id
            if key in state.rewrite_children:
                continue
            state.rewrite_children.add(key)
            outgoing.append(
                (
                    child_devs[child_id],
                    SubscribeMessage(
                        plan_id=context.plan_id,
                        up_node=state.task.node_id,
                        down_node=child_id,
                        original=original,
                        transformed=transformed,
                    ),
                )
            )
        return outgoing

    def _emit_updates(
        self, context: _PlanContext, state: _NodeState, region: Predicate
    ) -> Outgoing:
        """Diff LocCIB against CIBOut for ``region`` and build UPDATEs."""
        fresh = state.loc.lookup(region)
        if context.plan.mode == "minimal" and context.plan.count_exprs[0]:
            count_expr = context.plan.count_exprs[0]
            fresh = [
                (predicate, counts.minimal_info(count_expr))
                for predicate, counts in fresh
            ]
        withdrawn, results = state.out.diff_against(region, fresh)
        if not withdrawn and not results:
            return []
        outgoing: Outgoing = []
        for parent_id, parent_dev in state.task.parents:
            message = UpdateMessage(
                plan_id=context.plan_id,
                up_node=parent_id,
                down_node=state.task.node_id,
                withdrawn=tuple(withdrawn),
                results=tuple(results),
            )
            if parent_dev == self.device:
                # Intra-device DPVNet edge: handle synchronously.
                outgoing.extend(self._on_update(context, message))
            else:
                outgoing.append((parent_dev, message))
        return outgoing

    # ------------------------------------------------------------------
    # local (equal-operator) checks

    def _run_local_checks(self, context: _PlanContext) -> None:
        """RCDC-style local contracts: empty counting information (§4.2).

        Every node checks that its device forwards the packet space to
        exactly its downstream DPVNet neighbors (destinations must
        deliver).  Violations are recorded for the planner.
        """
        self._drop_violations(context.plan_id)
        scene_index = context.scene_index or 0
        packet_space = context.plan.invariant.packet_space
        for state in context.nodes.values():
            expected = {
                dev
                for dev in state.task.downstream_devices(scene_index)
                if tuple(sorted((self.device, dev)))
                not in self.linkstate.failed_links
            }
            accepts = state.task.accepts_in_scene(scene_index)
            for predicate, action in self.lec.classes_overlapping(packet_space):
                if accepts:
                    if not action.is_deliver:
                        self._record_violation(
                            context, state, predicate,
                            "destination does not deliver",
                        )
                    continue
                if not isinstance(action, Forward):
                    self._record_violation(
                        context, state, predicate,
                        "drops instead of forwarding to DPVNet neighbors",
                    )
                    continue
                actual = set(action.next_hops)
                if actual != expected:
                    extra = sorted(actual - expected)
                    absent = sorted(expected - actual)
                    self._record_violation(
                        context, state, predicate,
                        f"forwarding set mismatch (missing={absent}, "
                        f"extra={extra})",
                    )

    def _drop_violations(self, plan_id: str) -> None:
        self.violations = [
            violation
            for violation in self.violations
            if violation.plan_id != plan_id
        ]

    def _record_violation(
        self,
        context: _PlanContext,
        state: _NodeState,
        predicate: Predicate,
        reason: str,
    ) -> None:
        self.violations.append(
            Violation(
                plan_id=context.plan_id,
                device=self.device,
                node_id=state.task.node_id,
                predicate=predicate,
                reason=reason,
            )
        )
        if self.flight.enabled:
            self.flight.record(
                "verdict",
                plan=context.plan_id,
                node=state.task.node_id,
                holds=False,
                prev=None,
                reason=reason,
            )


def _combine(
    action: Forward,
    inputs: Dict[str, CountSet],
    missing: bool,
    dim: int,
) -> CountSet:
    """Equations (1) and (2)."""
    parts = list(inputs.values())
    if action.kind == ANY:
        combined = union_all(dim, parts)
        return combined.with_zero() if missing else combined
    return cross_sum_all(dim, parts)
