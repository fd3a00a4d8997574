"""Workload construction for the evaluation (paper §9.3.1).

* WAN/LAN datasets verify all-pair loop-free blackhole-free reachability
  along paths within ``shortest + 2`` hops: one invariant per destination
  prefix with every other device as ingress.
* DC datasets verify all-ToR-pair shortest-path reachability: one
  invariant per ToR prefix with every other ToR as ingress.
* Incremental streams are random rule updates: a device re-routes a
  random sub-prefix to another (usually valid) next hop, or withdraws a
  previous re-route.
* Fault scenes follow §9.3.4: random sets of at most 3 links.
"""

from __future__ import annotations

import ipaddress
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.dataplane.actions import Forward
from repro.dataplane.fib import Fib, Rule
from repro.dataplane.routes import (
    PRIORITY_ERROR,
    RouteConfig,
    install_routes,
)
from repro.packetspace.fields import DSTIP_ONLY_LAYOUT
from repro.packetspace.predicate import PredicateFactory
from repro.planner import Plan, plan_invariants
from repro.spec.ast import (
    CountExpr,
    Exist,
    Invariant,
    LengthFilter,
    Match,
    PathExp,
    SHORTEST,
)
from repro.topology.datasets import DATASETS, load_dataset
from repro.topology.graph import FaultScene, Topology


@dataclass
class Workload:
    """A dataset instantiated for benchmarking."""

    name: str
    topology: Topology
    factory: PredicateFactory
    fibs: Dict[str, Fib]
    plans: List[Tuple[str, Plan]]
    kind: str  # WAN | LAN | DC


def reachability_invariant(
    factory: PredicateFactory,
    topology: Topology,
    destination: str,
    cidr: str,
    ingresses: Sequence[str],
    max_extra_hops: int = 2,
    shortest_only: bool = False,
) -> Invariant:
    """The evaluation invariant shape for one destination prefix."""
    delta = 0 if shortest_only else max_extra_hops
    op = "==" if shortest_only else "<="
    path = PathExp(
        f".* {destination}",
        length_filters=(LengthFilter(op, SHORTEST, delta),),
        loop_free=True,
    )
    return Invariant(
        packet_space=factory.dst_prefix(cidr),
        ingress_set=tuple(ingresses),
        behavior=Match(Exist(CountExpr(">=", 1)), path),
        name=f"reach-{destination}-{cidr}",
    )


def build_workload(
    dataset: str,
    scale: str = "bench",
    ecmp: str = "any",
    max_destinations: Optional[int] = None,
    max_extra_hops: int = 2,
    seed: int = 11,
    prefixes_per_device: int = 1,
) -> Workload:
    """Instantiate a dataset: topology, routed FIBs and invariant plans.

    ``max_destinations`` truncates the invariant set (per-destination
    plans are independent, so truncation scales work linearly -- used to
    keep pytest-benchmark sweeps fast; pass None for the full set).
    ``prefixes_per_device`` scales WAN/LAN rule volume toward the real
    datasets' FIB sizes (ignored for DC datasets, whose ToR subnets are
    fixed by the fabric shape).
    """
    spec = DATASETS[dataset]
    topology = load_dataset(
        dataset, scale, prefixes_per_device=prefixes_per_device
    )
    factory = PredicateFactory(DSTIP_ONLY_LAYOUT)
    fibs = install_routes(
        topology,
        factory,
        RouteConfig(ecmp=ecmp, rule_scale=spec.rule_scale, seed=seed),
    )
    if spec.kind == "DC":
        owners = [
            device
            for device in topology.devices_with_prefixes()
        ]
        ingress_pool = owners  # ToR-to-ToR
        shortest_only = True
    else:
        owners = list(topology.devices_with_prefixes())
        ingress_pool = list(topology.devices)
        shortest_only = False

    destinations = owners[:max_destinations] if max_destinations else owners
    invariants = [
        reachability_invariant(
            factory,
            topology,
            destination,
            cidr,
            [d for d in ingress_pool if d != destination],
            max_extra_hops=max_extra_hops,
            shortest_only=shortest_only,
        )
        for destination in destinations
        for cidr in topology.external_prefixes(destination)
    ]
    plans = plan_invariants(invariants, topology)
    return Workload(
        name=dataset,
        topology=topology,
        factory=factory,
        fibs=fibs,
        plans=[
            (invariant.name, plan) for invariant, plan in zip(invariants, plans)
        ],
        kind=spec.kind,
    )


# ---------------------------------------------------------------------------
# rule update streams


@dataclass
class RuleUpdate:
    """One incremental update: apply it via ``apply()`` on the live FIBs."""

    device: str
    description: str
    apply: Callable[[], None] = field(repr=False, default=None)


def random_rule_updates(
    workload: Workload,
    count: int,
    seed: int = 23,
    error_rate: float = 0.05,
) -> List[RuleUpdate]:
    """A stream of random localized rule updates.

    Each update either (a) inserts a high-priority rule re-routing a
    random /26 slice of some destination prefix at a random device to a
    random *downhill* neighbor (a correct re-route), (b) with probability
    ``error_rate`` points the slice at a drop or an uphill neighbor (an
    injected error the verifier must flag), or (c) removes a rule this
    stream inserted earlier.
    """
    rng = random.Random(seed)
    topology = workload.topology
    factory = workload.factory
    inserted: List[Tuple[str, Rule]] = []
    updates: List[RuleUpdate] = []
    prefixes = [
        (device, cidr)
        for device in topology.devices_with_prefixes()
        for cidr in topology.external_prefixes(device)
    ]
    if not prefixes:
        raise ValueError("workload has no destination prefixes")

    for index in range(count):
        if inserted and rng.random() < 0.3:
            device, rule = inserted.pop(rng.randrange(len(inserted)))
            updates.append(
                RuleUpdate(
                    device=device,
                    description=f"remove {rule.label}",
                    apply=lambda d=device, r=rule: _safe_remove(
                        workload.fibs[d], r.rule_id
                    ),
                )
            )
            continue
        destination, cidr = rng.choice(prefixes)
        candidates = [d for d in topology.devices if d != destination]
        device = rng.choice(candidates)
        distances = topology.hop_distances(destination)
        neighbors = list(topology.neighbors(device))
        downhill = [
            peer
            for peer in neighbors
            if distances.get(peer, 1 << 30) < distances.get(device, 1 << 30)
        ]
        erroneous = rng.random() < error_rate
        if erroneous or not downhill:
            others = [peer for peer in neighbors if peer not in downhill]
            next_hop = rng.choice(others or neighbors)
        else:
            next_hop = rng.choice(downhill)
        slice_cidr = _random_slice(cidr, rng)
        predicate = factory.dst_prefix(slice_cidr)

        def apply(
            d: str = device,
            p=predicate,
            hop: str = next_hop,
            label: str = slice_cidr,
        ) -> None:
            rule = workload.fibs[d].insert(
                PRIORITY_ERROR, p, Forward([hop]), label=label
            )
            inserted.append((d, rule))

        updates.append(
            RuleUpdate(
                device=device,
                description=f"{device}: {slice_cidr} -> {next_hop}"
                + (" (error)" if erroneous else ""),
                apply=apply,
            )
        )
    return updates


def _safe_remove(fib: Fib, rule_id: int) -> None:
    if fib.get(rule_id) is not None:
        fib.remove(rule_id)


def _random_slice(cidr: str, rng: random.Random) -> str:
    """A random /26 inside ``cidr``."""
    network = ipaddress.ip_network(cidr, strict=False)
    depth = max(0, 26 - network.prefixlen)
    subnets = list(network.subnets(prefixlen_diff=min(depth, 6)))
    return str(rng.choice(subnets))


# ---------------------------------------------------------------------------
# fault scenes


def random_fault_scenes(
    topology: Topology,
    count: int = 50,
    max_failures: int = 3,
    seed: int = 31,
    keep_connected: bool = True,
) -> List[FaultScene]:
    """Random scenes of at most ``max_failures`` failed links (§9.3.4).

    ``keep_connected`` skips scenes that partition the network (a
    partition makes reachability trivially unsatisfiable, which would
    measure error reporting rather than verification).
    """
    rng = random.Random(seed)
    links = [link.endpoints for link in topology.links]
    scenes: List[FaultScene] = []
    attempts = 0
    while len(scenes) < count and attempts < count * 50:
        attempts += 1
        size = rng.randint(1, max_failures)
        failed = rng.sample(links, min(size, len(links)))
        scene = FaultScene(failed)
        if keep_connected and not topology.is_connected(scene):
            continue
        scenes.append(scene)
    return scenes
