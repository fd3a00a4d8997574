"""Immutable packet-set predicates and their factory.

A :class:`PredicateFactory` owns one :class:`~repro.bdd.BDDManager` and a
:class:`~repro.packetspace.fields.HeaderLayout`; every predicate built by a
factory shares that manager, so set operations between them are valid and
equality is canonical (same BDD node == same packet set).
"""

from __future__ import annotations

import ipaddress
from typing import Iterable, Optional, Tuple

from repro.bdd import BDDManager, deserialize_bdd, serialize_bdd
from repro.bdd.manager import FALSE, TRUE
from repro.packetspace.fields import DEFAULT_LAYOUT, HeaderLayout

#: Payload bytes one manager's wire-form memos may hold (both directions
#: together).  BDD nodes are hash-consed and immutable, so a node has one
#: wire form and a payload decodes to one node; at the budget the memos
#: are dropped whole and refill from what is still being sent.
WIRE_MEMO_BUDGET = 4 * 1024 * 1024


def _remember_wire(bdd: BDDManager, payload: bytes) -> bool:
    """Account for one more memoized ``payload``; False if it cannot fit."""
    size = len(payload)
    if bdd.wire_memo_bytes + size > WIRE_MEMO_BUDGET:
        bdd.drop_wire_memos()
        if size > WIRE_MEMO_BUDGET:
            return False
    bdd.wire_memo_bytes += size
    return True


class Predicate:
    """An immutable set of packets, backed by a canonical BDD node.

    Build predicates through a :class:`PredicateFactory`; combine them with
    ``&`` (intersection), ``|`` (union), ``-`` (difference) and ``~``
    (complement).  Two predicates from the same factory are equal iff they
    denote the same packet set.
    """

    __slots__ = ("factory", "node")

    def __init__(self, factory: "PredicateFactory", node: int) -> None:
        self.factory = factory
        self.node = node

    # -- set algebra ----------------------------------------------------

    def _check_sibling(self, other: "Predicate") -> None:
        if self.factory is not other.factory:
            raise ValueError(
                "cannot combine predicates from different factories"
            )

    def __and__(self, other: "Predicate") -> "Predicate":
        self._check_sibling(other)
        return Predicate(self.factory, self.factory.bdd.apply_and(self.node, other.node))

    def __or__(self, other: "Predicate") -> "Predicate":
        self._check_sibling(other)
        return Predicate(self.factory, self.factory.bdd.apply_or(self.node, other.node))

    def __sub__(self, other: "Predicate") -> "Predicate":
        self._check_sibling(other)
        return Predicate(self.factory, self.factory.bdd.apply_diff(self.node, other.node))

    def __invert__(self) -> "Predicate":
        return Predicate(self.factory, self.factory.bdd.negate(self.node))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Predicate):
            return NotImplemented
        return self.factory is other.factory and self.node == other.node

    def __hash__(self) -> int:
        return hash((id(self.factory), self.node))

    # -- queries ---------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.node == FALSE

    @property
    def is_full(self) -> bool:
        return self.node == TRUE

    def is_subset_of(self, other: "Predicate") -> bool:
        self._check_sibling(other)
        return self.factory.bdd.implies(self.node, other.node)

    def overlaps(self, other: "Predicate") -> bool:
        self._check_sibling(other)
        return self.factory.bdd.apply_and(self.node, other.node) != FALSE

    def count(self) -> int:
        """Number of concrete packets (header assignments) in the set."""
        return self.factory.bdd.sat_count(self.node)

    def sample(self) -> Optional[dict]:
        """One concrete packet as a {field_name: int} dict, or None."""
        assignment = self.factory.bdd.pick_one(self.node)
        if assignment is None:
            return None
        packet = {}
        for name in self.factory.layout.field_names():
            spec = self.factory.layout.field(name)
            value = 0
            for bit in range(spec.width):
                value = (value << 1) | int(assignment.get(spec.bit_var(bit), False))
            packet[name] = value
        return packet

    # -- wire format -----------------------------------------------------

    def to_bytes(self) -> bytes:
        bdd = self.factory.bdd
        payload = bdd.wire_of_node.get(self.node)
        if payload is None:
            payload = serialize_bdd(bdd, self.node)
            if _remember_wire(bdd, payload):
                bdd.wire_of_node[self.node] = payload
        return payload

    def __repr__(self) -> str:
        if self.is_empty:
            return "Predicate(∅)"
        if self.is_full:
            return "Predicate(*)"
        return f"Predicate(node={self.node})"


class PredicateFactory:
    """Build predicates over one header layout with one shared BDD manager."""

    def __init__(self, layout: HeaderLayout = DEFAULT_LAYOUT) -> None:
        self.layout = layout
        self.bdd = BDDManager(layout.num_vars)

    # -- constants --------------------------------------------------------

    def empty(self) -> Predicate:
        return Predicate(self, FALSE)

    def all_packets(self) -> Predicate:
        return Predicate(self, TRUE)

    def from_node(self, node: int) -> Predicate:
        """Wrap a raw BDD node from this factory's manager."""
        return Predicate(self, node)

    def from_bytes(self, payload: bytes) -> Predicate:
        """Decode a wire form.  Only a payload that passed every check of
        ``deserialize_bdd`` is remembered (under its exact bytes, in this
        manager), so a malformed one is rejected on every presentation."""
        node = self.bdd.node_of_wire.get(payload)
        if node is None:
            node = deserialize_bdd(self.bdd, payload)
            if _remember_wire(self.bdd, payload):
                self.bdd.node_of_wire[payload] = node
        return Predicate(self, node)

    # -- field constraints -------------------------------------------------

    def field_eq(self, name: str, value: int) -> Predicate:
        """Packets whose field ``name`` equals ``value`` exactly."""
        spec = self.layout.field(name)
        if not 0 <= value <= spec.max_value:
            raise ValueError(
                f"value {value} out of range for field {name!r} "
                f"(width {spec.width})"
            )
        node = TRUE
        for bit in range(spec.width - 1, -1, -1):
            bit_set = bool((value >> (spec.width - 1 - bit)) & 1)
            node = self.bdd.apply_and(node, self.bdd.literal(spec.bit_var(bit), bit_set))
        return Predicate(self, node)

    def field_prefix(self, name: str, value: int, prefix_len: int) -> Predicate:
        """Packets whose field's top ``prefix_len`` bits equal ``value``'s."""
        spec = self.layout.field(name)
        if not 0 <= prefix_len <= spec.width:
            raise ValueError(
                f"prefix length {prefix_len} out of range for field {name!r}"
            )
        node = TRUE
        for bit in range(prefix_len - 1, -1, -1):
            bit_set = bool((value >> (spec.width - 1 - bit)) & 1)
            node = self.bdd.apply_and(node, self.bdd.literal(spec.bit_var(bit), bit_set))
        return Predicate(self, node)

    def field_range(self, name: str, lo: int, hi: int) -> Predicate:
        """Packets with ``lo <= field <= hi`` (inclusive both ends)."""
        spec = self.layout.field(name)
        if not 0 <= lo <= hi <= spec.max_value:
            raise ValueError(
                f"invalid range [{lo}, {hi}] for field {name!r}"
            )
        node = self.bdd.disjoin(
            [
                self.field_prefix(name, value << shift, spec.width - shift).node
                for value, shift in _range_to_prefixes(lo, hi, spec.width)
            ]
        )
        return Predicate(self, node)

    # -- IP conveniences ----------------------------------------------------

    def dst_prefix(self, cidr: str) -> Predicate:
        """Packets whose destination IP matches ``cidr`` (e.g. "10.0.0.0/23")."""
        network = ipaddress.ip_network(cidr, strict=False)
        return self.field_prefix("dst_ip", int(network.network_address), network.prefixlen)

    def dst_port(self, port: int) -> Predicate:
        return self.field_eq("dst_port", port)

    def union(self, predicates: Iterable[Predicate]) -> Predicate:
        node = self.bdd.disjoin([p.node for p in predicates])
        return Predicate(self, node)

    def intersection(self, predicates: Iterable[Predicate]) -> Predicate:
        node = self.bdd.conjoin([p.node for p in predicates])
        return Predicate(self, node)


def _range_to_prefixes(lo: int, hi: int, width: int) -> Tuple[Tuple[int, int], ...]:
    """Decompose [lo, hi] into maximal aligned blocks as (base>>shift, shift).

    Standard range-to-CIDR decomposition; yields O(width) blocks.
    """
    blocks = []
    while lo <= hi:
        # Largest power-of-two block aligned at lo that fits within hi.
        shift = (lo & -lo).bit_length() - 1 if lo else width
        while shift > 0 and lo + (1 << shift) - 1 > hi:
            shift -= 1
        blocks.append((lo >> shift, shift))
        lo += 1 << shift
        if lo == 0:  # wrapped (lo was 0 and shift == width)
            break
    return tuple(blocks)
