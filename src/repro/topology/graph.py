"""Topology graph model.

Devices are identified by strings.  Links are undirected with a symmetric
propagation latency in seconds.  External prefixes record which IP space is
reachable through a device's external ports -- the `(device, IP_prefix)`
convenience mapping of the paper's §3, used for destination-consistency
checks on invariants.

Fault scenes (§6) are immutable sets of failed links; topologies are never
mutated when evaluating a scene, so a single topology object is safely
shared between planner, verifiers and the simulator.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)


def _normalize(a: str, b: str) -> Tuple[str, str]:
    """Canonical (sorted) endpoint order for an undirected link."""
    return (a, b) if a <= b else (b, a)


class Link:
    """An undirected link between two devices with a propagation latency."""

    __slots__ = ("a", "b", "latency")

    def __init__(self, a: str, b: str, latency: float = 0.0) -> None:
        if a == b:
            raise ValueError(f"self-loop link at device {a!r}")
        if latency < 0:
            raise ValueError(f"negative latency on link ({a}, {b})")
        self.a, self.b = _normalize(a, b)
        self.latency = latency

    @property
    def endpoints(self) -> Tuple[str, str]:
        return (self.a, self.b)

    def other(self, device: str) -> str:
        if device == self.a:
            return self.b
        if device == self.b:
            return self.a
        raise ValueError(f"device {device!r} is not an endpoint of {self!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Link):
            return NotImplemented
        return self.endpoints == other.endpoints

    def __hash__(self) -> int:
        return hash(self.endpoints)

    def __repr__(self) -> str:
        return f"Link({self.a!r}, {self.b!r}, latency={self.latency})"


class FaultScene:
    """An immutable set of failed links (pairs of device names)."""

    __slots__ = ("failed",)

    def __init__(self, failed: Iterable[Tuple[str, str]] = ()) -> None:
        self.failed: FrozenSet[Tuple[str, str]] = frozenset(
            _normalize(a, b) for a, b in failed
        )

    def is_failed(self, a: str, b: str) -> bool:
        return _normalize(a, b) in self.failed

    def is_subset_of(self, other: "FaultScene") -> bool:
        return self.failed <= other.failed

    def __len__(self) -> int:
        return len(self.failed)

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(sorted(self.failed))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultScene):
            return NotImplemented
        return self.failed == other.failed

    def __hash__(self) -> int:
        return hash(self.failed)

    def __repr__(self) -> str:
        return f"FaultScene({sorted(self.failed)})"


#: The no-failure scene.
NO_FAULTS = FaultScene()


class Topology:
    """A network of devices and undirected links."""

    def __init__(self, name: str = "net") -> None:
        self.name = name
        self._adjacency: Dict[str, Dict[str, Link]] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._external_prefixes: Dict[str, List[str]] = {}

    # -- construction ------------------------------------------------------

    def add_device(self, device: str) -> None:
        if not device:
            raise ValueError("device name must be non-empty")
        self._adjacency.setdefault(device, {})

    def add_devices(self, devices: Iterable[str]) -> None:
        for device in devices:
            self.add_device(device)

    def add_link(self, a: str, b: str, latency: float = 0.0) -> Link:
        self.add_device(a)
        self.add_device(b)
        link = Link(a, b, latency)
        key = link.endpoints
        if key in self._links:
            raise ValueError(f"duplicate link between {a!r} and {b!r}")
        self._links[key] = link
        self._adjacency[a][b] = link
        self._adjacency[b][a] = link
        return link

    def attach_prefix(self, device: str, cidr: str) -> None:
        """Record that ``cidr`` is reachable via an external port of ``device``."""
        if device not in self._adjacency:
            raise KeyError(f"unknown device {device!r}")
        self._external_prefixes.setdefault(device, []).append(cidr)

    # -- queries -------------------------------------------------------------

    @property
    def devices(self) -> Tuple[str, ...]:
        return tuple(self._adjacency)

    @property
    def links(self) -> Tuple[Link, ...]:
        return tuple(self._links.values())

    @property
    def num_devices(self) -> int:
        return len(self._adjacency)

    @property
    def num_links(self) -> int:
        return len(self._links)

    def has_device(self, device: str) -> bool:
        return device in self._adjacency

    def has_link(self, a: str, b: str) -> bool:
        return _normalize(a, b) in self._links

    def link(self, a: str, b: str) -> Link:
        try:
            return self._links[_normalize(a, b)]
        except KeyError:
            raise KeyError(f"no link between {a!r} and {b!r}") from None

    def neighbors(
        self, device: str, scene: FaultScene = NO_FAULTS
    ) -> Tuple[str, ...]:
        """Neighbors of ``device`` with failed links of ``scene`` removed."""
        try:
            adjacent = self._adjacency[device]
        except KeyError:
            raise KeyError(f"unknown device {device!r}") from None
        if not scene.failed:
            return tuple(adjacent)
        return tuple(
            peer for peer in adjacent if not scene.is_failed(device, peer)
        )

    def external_prefixes(self, device: str) -> Tuple[str, ...]:
        return tuple(self._external_prefixes.get(device, ()))

    def devices_with_prefixes(self) -> Tuple[str, ...]:
        """Devices that have at least one external prefix attached (edges)."""
        return tuple(sorted(self._external_prefixes))

    def retain_prefixes(self, owners: Iterable[str]) -> None:
        """Drop external prefixes of every device not in ``owners``.

        Workload pruning for scale sweeps: fewer destination prefixes
        means proportionally fewer routes and invariants while the graph
        itself (devices, links, diameter) stays intact.  Unknown names
        in ``owners`` raise; owners without prefixes are allowed (a
        no-op for them).
        """
        keep = set(owners)
        unknown = sorted(keep - set(self._adjacency))
        if unknown:
            raise KeyError(f"unknown devices: {unknown}")
        self._external_prefixes = {
            device: prefixes
            for device, prefixes in self._external_prefixes.items()
            if device in keep
        }

    # -- shortest paths -------------------------------------------------------

    def hop_distances(
        self, source: str, scene: FaultScene = NO_FAULTS
    ) -> Dict[str, int]:
        """BFS hop counts from ``source`` to every reachable device."""
        distances = {source: 0}
        queue = deque([source])
        while queue:
            device = queue.popleft()
            for peer in self.neighbors(device, scene):
                if peer not in distances:
                    distances[peer] = distances[device] + 1
                    queue.append(peer)
        return distances

    def shortest_hop_count(
        self, source: str, destination: str, scene: FaultScene = NO_FAULTS
    ) -> Optional[int]:
        """Hop count of the shortest path, or None if disconnected."""
        return self.hop_distances(source, scene).get(destination)

    def latency_distances(self, source: str) -> Dict[str, float]:
        """Dijkstra latencies from ``source`` (for the management network)."""
        import heapq

        distances: Dict[str, float] = {}
        heap: List[Tuple[float, str]] = [(0.0, source)]
        while heap:
            latency, device = heapq.heappop(heap)
            if device in distances:
                continue
            distances[device] = latency
            for peer, link in self._adjacency[device].items():
                if peer not in distances:
                    heapq.heappush(heap, (latency + link.latency, peer))
        return distances

    def is_connected(self, scene: FaultScene = NO_FAULTS) -> bool:
        if not self._adjacency:
            return True
        first = next(iter(self._adjacency))
        return len(self.hop_distances(first, scene)) == self.num_devices

    def diameter_hops(self) -> int:
        """Longest shortest-path hop count over all device pairs."""
        best = 0
        for device in self._adjacency:
            distances = self.hop_distances(device)
            if len(distances) < self.num_devices:
                raise ValueError("diameter undefined: topology is disconnected")
            best = max(best, max(distances.values()))
        return best

    # -- misc -----------------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "Topology":
        duplicate = Topology(name or self.name)
        duplicate.add_devices(self.devices)
        for link in self.links:
            duplicate.add_link(link.a, link.b, link.latency)
        for device, prefixes in self._external_prefixes.items():
            for cidr in prefixes:
                duplicate.attach_prefix(device, cidr)
        return duplicate

    def __repr__(self) -> str:
        return (
            f"Topology({self.name!r}, devices={self.num_devices}, "
            f"links={self.num_links})"
        )
