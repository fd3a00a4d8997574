"""Deterministic sharding: device -> worker assignment and port plan.

Every fleet participant (launcher, each worker, external scrapers)
derives the *same* plan from the same ``(topology, num_workers,
base_port)`` inputs, so processes rendezvous with no registry:

* worker ``w`` serves its control channel on ``base_port + w``
  (:data:`CONTROL_SPAN` ports are reserved, bounding the fleet width);
* device ``d`` binds its DVM server on ``base_port + CONTROL_SPAN + i``
  where ``i`` is ``d``'s index in the *globally sorted* device list --
  deliberately independent of the worker count, so re-sharding a fleet
  over more workers never moves a device's wire address;
* device ``d`` serves telemetry on ``base_port + CONTROL_SPAN +
  num_devices + i`` (same global index).

Assignment walks the topology in BFS order from the lexicographically
smallest device and cuts the walk into ``num_workers`` balanced
contiguous chunks: BFS keeps topology neighbors adjacent in the walk,
so most links end up *inside* a worker (served by the in-process fast
path) rather than between workers (real TCP).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.topology.graph import Topology

__all__ = ["CONTROL_SPAN", "ShardPlan", "make_shard_plan"]

#: Ports reserved for worker control channels (= the max fleet width).
CONTROL_SPAN = 64

#: Default base port of a fleet's port plan.
DEFAULT_BASE_PORT = 27100


@dataclass(frozen=True)
class ShardPlan:
    """The deterministic rendezvous plan of one fleet."""

    base_port: int
    num_workers: int
    #: Worker index -> sorted device names it hosts.
    shards: Tuple[Tuple[str, ...], ...]
    #: Device -> owning worker index.
    worker_of: Dict[str, int] = field(repr=False)
    #: Device -> planned DVM server port (global, worker-independent).
    dvm_ports: Dict[str, int] = field(repr=False)
    #: Device -> planned telemetry port (global, worker-independent).
    http_ports: Dict[str, int] = field(repr=False)

    @property
    def num_devices(self) -> int:
        return len(self.worker_of)

    @property
    def http_base_port(self) -> int:
        """What a worker passes as ``http_base_port`` to its cluster.

        ``RuntimeCluster`` allocates ``base + global sorted index`` per
        device, which lands exactly on :attr:`http_ports`.
        """
        return self.base_port + CONTROL_SPAN + self.num_devices

    def control_port(self, worker: int) -> int:
        if not 0 <= worker < self.num_workers:
            raise IndexError(f"worker {worker} out of range")
        return self.base_port + worker

    def colocated_link_fraction(self, topology: Topology) -> float:
        """Fraction of links whose endpoints share a worker (fast path)."""
        links = topology.links
        if not links:
            return 1.0
        colocated = sum(
            1
            for link in links
            if self.worker_of[link.a] == self.worker_of[link.b]
        )
        return colocated / len(links)


def _bfs_order(topology: Topology) -> List[str]:
    """Deterministic BFS walk covering every device (all components)."""
    order: List[str] = []
    seen = set()
    for root in sorted(topology.devices):
        if root in seen:
            continue
        seen.add(root)
        queue = deque([root])
        while queue:
            device = queue.popleft()
            order.append(device)
            for peer in sorted(topology.neighbors(device)):
                if peer not in seen:
                    seen.add(peer)
                    queue.append(peer)
    return order


def make_shard_plan(
    topology: Topology,
    num_workers: int,
    base_port: int = DEFAULT_BASE_PORT,
) -> ShardPlan:
    """Build the fleet's deterministic sharding + port plan."""
    num_devices = topology.num_devices
    if not 1 <= num_workers <= CONTROL_SPAN:
        raise ValueError(
            f"num_workers must be in [1, {CONTROL_SPAN}], got {num_workers}"
        )
    if num_workers > num_devices:
        raise ValueError(
            f"{num_workers} workers for {num_devices} devices: "
            "every worker needs at least one device"
        )
    if base_port < 1024:
        raise ValueError(f"base_port must be >= 1024, got {base_port}")

    order = _bfs_order(topology)
    quotient, remainder = divmod(num_devices, num_workers)
    shards: List[Tuple[str, ...]] = []
    worker_of: Dict[str, int] = {}
    cursor = 0
    for worker in range(num_workers):
        size = quotient + (1 if worker < remainder else 0)
        chunk = order[cursor : cursor + size]
        cursor += size
        shards.append(tuple(sorted(chunk)))
        for device in chunk:
            worker_of[device] = worker

    dvm_base = base_port + CONTROL_SPAN
    http_base = dvm_base + num_devices
    dvm_ports: Dict[str, int] = {}
    http_ports: Dict[str, int] = {}
    for index, device in enumerate(sorted(topology.devices)):
        dvm_ports[device] = dvm_base + index
        http_ports[device] = http_base + index

    return ShardPlan(
        base_port=base_port,
        num_workers=num_workers,
        shards=tuple(shards),
        worker_of=worker_of,
        dvm_ports=dvm_ports,
        http_ports=http_ports,
    )
