"""Route computation: populate FIBs from a topology.

Implements the workloads of §9.2/§9.3: every device installs
longest-prefix rules toward every external prefix along shortest paths,
with equal-cost multipath groups as ANY-type actions.  ``rule_scale``
multiplies rule volume by splitting each prefix into sub-prefixes plus a
covering aggregate (forwarding-equivalent), reproducing the AT1-2/AT2-2
datasets that share a topology but carry 3.39x/11.97x the rules.
"""

from __future__ import annotations

import ipaddress
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.dataplane.actions import ALL, ANY, Deliver, Forward
from repro.dataplane.fib import Fib
from repro.packetspace.predicate import PredicateFactory
from repro.topology.graph import Topology

#: Priority bands: aggregates sit below sub-prefixes, injected errors above.
PRIORITY_AGGREGATE = 100
PRIORITY_SUBPREFIX = 200
PRIORITY_ERROR = 1000


@dataclass(frozen=True)
class RouteConfig:
    """Knobs for route generation.

    ``ecmp`` selects how equal-cost next hops are installed: ``"any"``
    (one ANY-type group, the realistic default), ``"single"`` (pick one
    deterministic next hop), or ``"all"`` (replicate -- a multicast-style
    stress mode).  ``rule_scale`` >= 1 multiplies rule counts via
    sub-prefix splitting.  ``seed`` only matters for ``"single"`` tie
    breaking.
    """

    ecmp: str = "any"
    rule_scale: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.ecmp not in ("any", "single", "all"):
            raise ValueError(f"unknown ecmp mode {self.ecmp!r}")
        if self.rule_scale < 1.0:
            raise ValueError("rule_scale must be >= 1")


def split_prefix(cidr: str, pieces: int) -> List[str]:
    """Split ``cidr`` into sub-prefixes so that ``pieces`` rules cover it.

    Returns ``pieces - 1`` disjoint sub-prefixes (the caller adds the
    covering aggregate as the final rule).  ``pieces == 1`` returns [].
    """
    if pieces <= 1:
        return []
    network = ipaddress.ip_network(cidr, strict=False)
    depth = max(1, math.ceil(math.log2(pieces)))
    depth = min(depth, 32 - network.prefixlen)
    if depth == 0:
        return []  # host routes cannot be split further
    subnets = list(network.subnets(prefixlen_diff=depth))
    return [str(subnet) for subnet in subnets[: pieces - 1]]


def _next_hop_action(
    topology: Topology,
    device: str,
    distances: Dict[str, int],
    config: RouteConfig,
    rng: random.Random,
) -> Optional[Forward]:
    """Shortest-path next hops from ``device`` toward the BFS root."""
    my_distance = distances.get(device)
    if my_distance is None:
        return None
    downhill = [
        peer
        for peer in topology.neighbors(device)
        if distances.get(peer) == my_distance - 1
    ]
    if not downhill:
        return None
    if config.ecmp == "single":
        return Forward([rng.choice(sorted(downhill))], kind=ALL)
    kind = ANY if config.ecmp == "any" else ALL
    return Forward(downhill, kind=kind)


def install_routes(
    topology: Topology,
    factory: PredicateFactory,
    config: RouteConfig = RouteConfig(),
) -> Dict[str, Fib]:
    """Build one FIB per device routing all external prefixes.

    Every prefix attached to device ``D`` produces: a Deliver rule at
    ``D``, and at every other device a Forward rule toward ``D`` along
    shortest paths.  With ``rule_scale > 1``, sub-prefix rules (same
    action) are layered above the aggregate.
    """
    rng = random.Random(config.seed)
    fibs: Dict[str, Fib] = {device: Fib(device) for device in topology.devices}
    pieces = max(1, round(config.rule_scale))

    for destination in topology.devices_with_prefixes():
        distances = topology.hop_distances(destination)
        for cidr in topology.external_prefixes(destination):
            aggregate = factory.dst_prefix(cidr)
            subpredicates = [
                (sub, factory.dst_prefix(sub)) for sub in split_prefix(cidr, pieces)
            ]
            for device in topology.devices:
                if device == destination:
                    action: object = Deliver()
                else:
                    action = _next_hop_action(
                        topology, device, distances, config, rng
                    )
                    if action is None:
                        continue  # unreachable: leave the hole (default drop)
                fib = fibs[device]
                for sub_cidr, sub_predicate in subpredicates:
                    fib.insert(
                        PRIORITY_SUBPREFIX, sub_predicate, action, label=sub_cidr
                    )
                fib.insert(PRIORITY_AGGREGATE, aggregate, action, label=cidr)
    return fibs
