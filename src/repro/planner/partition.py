"""Divide-and-conquer verification over one-big-switch partitions (§7).

For networks whose DPVNets would carry a huge number of valid paths, the
paper proposes dividing the network into partitions abstracted as
one-big-switches, building the DPVNet on the abstract network, and
verifying intra-/inter-partition separately.

This module implements that scheme for reachability-style invariants
(``exist >= 1`` of a source-to-destination pattern):

* :class:`OneBigSwitchAbstraction` maps a device partition to an
  *abstract topology* (one node per group, links where any physical
  inter-group link exists, prefixes attached to owning groups);
* ``abstract_actions`` summarizes each group's forwarding of a packet
  space as the set of neighbor groups its member devices forward into
  (ANY-type: without intra-group analysis, the exit is not determined);
* :func:`verify_partitioned` composes the proof: the *inter* check walks
  the abstract forwarding graph from the ingress group to the
  destination group, and the *intra* check verifies, inside every group
  on that walk, that the packet space actually traverses the group --
  from each entry device to the exits used -- with the ordinary
  Algorithm 1 counting on the group's sub-topology.

The composition is sound for existential reachability: a packet is
delivered iff some abstract walk exists whose every group internally
forwards it entry-to-exit, which is exactly what the two checks
establish.  Counting-exact invariants (exact copy counts across
partition borders) still need the flat DPVNet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.dataplane.actions import Action, Forward
from repro.dataplane.lec import LecTable
from repro.packetspace.predicate import Predicate
from repro.planner.dpvnet import PlannerError, build_dpvnet
from repro.spec.ast import PathExp
from repro.topology.graph import Topology


class PartitionError(ValueError):
    """Raised for invalid partitions."""


class OneBigSwitchAbstraction:
    """A device partition viewed as a network of one-big-switches."""

    def __init__(self, topology: Topology, groups: Dict[str, str]) -> None:
        missing = [d for d in topology.devices if d not in groups]
        if missing:
            raise PartitionError(f"devices without a group: {missing[:5]}")
        self.topology = topology
        self.groups = dict(groups)
        self._members: Dict[str, List[str]] = {}
        for device, group in self.groups.items():
            self._members.setdefault(group, []).append(device)

    def group_of(self, device: str) -> str:
        return self.groups[device]

    def members(self, group: str) -> Tuple[str, ...]:
        try:
            return tuple(sorted(self._members[group]))
        except KeyError:
            raise PartitionError(f"unknown group {group!r}") from None

    def group_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._members))

    # ------------------------------------------------------------------

    def abstract_topology(self) -> Topology:
        """Groups as devices; one link per adjacent group pair."""
        abstract = Topology(f"{self.topology.name}/abstract")
        abstract.add_devices(self.group_names())
        for link in self.topology.links:
            group_a, group_b = self.groups[link.a], self.groups[link.b]
            if group_a != group_b and not abstract.has_link(group_a, group_b):
                abstract.add_link(group_a, group_b, link.latency)
        for device in self.topology.devices_with_prefixes():
            for cidr in self.topology.external_prefixes(device):
                abstract.attach_prefix(self.groups[device], cidr)
        return abstract

    def entry_devices(self, group: str, from_group: str) -> Tuple[str, ...]:
        """Members receiving links from ``from_group``."""
        return tuple(
            device
            for device in self.members(group)
            if any(
                self.groups[peer] == from_group
                for peer in self.topology.neighbors(device)
            )
        )

    def abstract_actions(
        self,
        lec_tables: Dict[str, LecTable],
        packets: Predicate,
    ) -> Dict[str, Set[str]]:
        """Per group: the neighbor groups its members forward ``packets``
        into (requires a single action per member over ``packets``;
        callers split by equivalence classes first)."""
        exits: Dict[str, Set[str]] = {group: set() for group in self.group_names()}
        for device, table in lec_tables.items():
            group = self.groups[device]
            for predicate, action in table.classes_overlapping(packets):
                if not isinstance(action, Forward):
                    continue
                for hop in action.next_hops:
                    if hop in self.groups and self.groups[hop] != group:
                        exits[group].add(self.groups[hop])
        return exits

    def subtopology(self, group: str, extra: Sequence[str] = ()) -> Topology:
        """The group's internal topology (plus listed outside devices)."""
        keep = set(self.members(group)) | set(extra)
        sub = Topology(f"{self.topology.name}/{group}")
        sub.add_devices(sorted(keep))
        for link in self.topology.links:
            if link.a in keep and link.b in keep:
                sub.add_link(link.a, link.b, link.latency)
        return sub


@dataclass
class PartitionReport:
    """Outcome of one partitioned verification."""

    holds: bool
    abstract_path_groups: Tuple[str, ...] = ()
    failures: List[str] = field(default_factory=list)


def verify_partitioned(
    abstraction: OneBigSwitchAbstraction,
    lec_tables: Dict[str, LecTable],
    packets: Predicate,
    ingress: str,
    destination: str,
    max_paths: int = 50_000,
) -> PartitionReport:
    """Existential reachability of ``packets`` from ``ingress`` device to
    ``destination`` device, verified per partition.

    Inter check: BFS over group-level forwarding (from
    ``abstract_actions``) from the ingress group toward the destination
    group.  Intra check, for every group on a candidate chain: counting
    on the group's sub-topology shows the packet crosses the group from
    each entry device used to an exit device forwarding into the next
    group (or is delivered, in the destination group).
    """
    topology = abstraction.topology
    source_group = abstraction.group_of(ingress)
    target_group = abstraction.group_of(destination)

    def action_of(device: str) -> Optional[Action]:
        table = lec_tables.get(device)
        return table.action_for(packets) if table else None

    # --- inter: find a group chain following abstract forwarding --------
    exits = abstraction.abstract_actions(lec_tables, packets)
    parents: Dict[str, Optional[str]] = {source_group: None}
    frontier = [source_group]
    while frontier and target_group not in parents:
        group = frontier.pop(0)
        for next_group in sorted(exits[group]):
            if next_group not in parents:
                parents[next_group] = group
                frontier.append(next_group)
    if target_group not in parents:
        return PartitionReport(
            holds=False,
            failures=[
                f"no abstract forwarding chain from group "
                f"{source_group!r} to {target_group!r}"
            ],
        )
    chain: List[str] = []
    cursor: Optional[str] = target_group
    while cursor is not None:
        chain.append(cursor)
        cursor = parents[cursor]
    chain.reverse()

    # --- intra: each group on the chain must carry the packet through ---
    failures: List[str] = []
    for position, group in enumerate(chain):
        entries: Tuple[str, ...]
        if position == 0:
            entries = (ingress,)
        else:
            entries = abstraction.entry_devices(group, chain[position - 1])
        if not entries:
            failures.append(
                f"group {group!r} has no entry from {chain[position - 1]!r}"
            )
            continue
        if group == target_group:
            goal = destination
        else:
            next_group = chain[position + 1]
            goal = None  # any device forwarding into next_group
        ok_from_some_entry = False
        for entry in entries:
            if _crosses_group(
                abstraction,
                lec_tables,
                packets,
                group,
                entry,
                goal,
                chain[position + 1] if group != target_group else None,
                action_of,
                max_paths,
            ):
                ok_from_some_entry = True
                break
        if not ok_from_some_entry:
            failures.append(
                f"group {group!r}: packets entering at {entries} do not "
                + (
                    f"reach {destination!r}"
                    if group == target_group
                    else f"exit toward group {chain[position + 1]!r}"
                )
            )
    return PartitionReport(
        holds=not failures,
        abstract_path_groups=tuple(chain),
        failures=failures,
    )


def _crosses_group(
    abstraction: OneBigSwitchAbstraction,
    lec_tables: Dict[str, LecTable],
    packets: Predicate,
    group: str,
    entry: str,
    destination: Optional[str],
    next_group: Optional[str],
    action_of: Callable[[str], Optional[Action]],
    max_paths: int,
) -> bool:
    """Count inside ``group``: does ``packets`` reach the goal from
    ``entry``?  The goal is a concrete destination device or, for transit
    groups, a virtual sink behind every member that forwards into
    ``next_group``."""
    from repro.counting.algorithm1 import count_dpvnet  # avoid import cycle

    if destination is not None:
        sub = abstraction.subtopology(group)
        if not sub.has_device(destination):
            return False
        if entry == destination:
            action = action_of(destination)
            return bool(action and action.is_deliver)
        path_exp = PathExp(f"{entry} .* {destination}", loop_free=True)
        try:
            net = build_dpvnet(sub, [path_exp], [entry], max_paths=max_paths)
        except PlannerError:
            return False
        counts = count_dpvnet(net, action_of)
        return any(
            count[0] >= 1
            for count in counts[net.roots[entry].node_id].tuples
        )

    # Transit group: add a virtual sink fed by every member forwarding
    # into the next group, then count reachability to the sink.
    sink = f"__exit_{next_group}__"
    exit_devices = [
        device
        for device in abstraction.members(group)
        if _forwards_into(abstraction, lec_tables, device, packets, next_group)
    ]
    if not exit_devices:
        return False
    if entry in exit_devices:
        return True
    sub = abstraction.subtopology(group)
    sub.add_device(sink)
    for device in exit_devices:
        sub.add_link(device, sink, 0.0)

    def patched_action(device: str) -> Optional[Action]:
        if device == sink:
            from repro.dataplane.actions import Deliver

            return Deliver()
        action = action_of(device)
        if device in exit_devices and isinstance(action, Forward):
            # Redirect the inter-group next hops onto the sink.
            hops = [
                sink
                if hop in abstraction.groups
                and abstraction.groups[hop] == next_group
                else hop
                for hop in action.next_hops
            ]
            return Forward(hops, kind=action.kind, rewrite=action.rewrite)
        return action

    path_exp = PathExp(f"{entry} .* {sink}", loop_free=True)
    try:
        net = build_dpvnet(sub, [path_exp], [entry], max_paths=max_paths)
    except PlannerError:
        return False
    counts = count_dpvnet(net, patched_action)
    return any(
        count[0] >= 1 for count in counts[net.roots[entry].node_id].tuples
    )


def _forwards_into(
    abstraction: OneBigSwitchAbstraction,
    lec_tables: Dict[str, LecTable],
    device: str,
    packets: Predicate,
    next_group: str,
) -> bool:
    table = lec_tables.get(device)
    if table is None:
        return False
    for _, action in table.classes_overlapping(packets):
        if isinstance(action, Forward) and any(
            hop in abstraction.groups
            and abstraction.groups[hop] == next_group
            for hop in action.next_hops
        ):
            return True
    return False
