"""Deterministic topology generators.

All generators are seeded and reproducible.  WAN latencies are derived from
synthetic geographic coordinates (the paper uses WonderNetwork ping data;
see DESIGN.md for the substitution rationale); LAN/DC links get a flat
10 microseconds, per §9.3.1.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, Tuple

from repro.topology.graph import Topology

#: Flat LAN/DC link latency (10 microseconds, per the paper's setup).
LAN_LATENCY = 10e-6

#: Scale from unit-square Euclidean distance to WAN one-way latency.  The
#: unit square spans a continent, so a full diagonal is ~60 ms one way.
WAN_LATENCY_SCALE = 0.042


def paper_example(latency: float = LAN_LATENCY) -> Topology:
    """The 5-device example network of the paper's Figure 2a.

    Devices S, A, B, W, D; links S-A, A-B, A-W, B-W, B-D, W-D.  Prefixes
    10.0.0.0/24 and 10.0.1.0/24 are external at D (the invariant's
    destination) and 10.0.2.0/24 at S so both ends can originate traffic.
    """
    topology = Topology("paper-example")
    for a, b in [("S", "A"), ("A", "B"), ("A", "W"), ("B", "W"), ("B", "D"), ("W", "D")]:
        topology.add_link(a, b, latency)
    topology.attach_prefix("D", "10.0.0.0/24")
    topology.attach_prefix("D", "10.0.1.0/24")
    topology.attach_prefix("S", "10.0.2.0/24")
    return topology


def line(num_devices: int, latency: float = LAN_LATENCY) -> Topology:
    """A chain d0 - d1 - ... - d(n-1)."""
    if num_devices < 1:
        raise ValueError("line needs at least one device")
    topology = Topology(f"line-{num_devices}")
    topology.add_device("d0")
    for index in range(1, num_devices):
        topology.add_link(f"d{index - 1}", f"d{index}", latency)
    return topology


def chained_diamond(num_diamonds: int, latency: float = LAN_LATENCY) -> Topology:
    """A chain of diamonds: the paper's worst case for count-set growth.

    Each diamond offers two parallel two-hop branches, so with ANY-type
    forwarding the number of distinct universes doubles per diamond --
    exactly the shape that motivates the minimal-counting-information
    optimization (Prop. 1).
    """
    if num_diamonds < 1:
        raise ValueError("need at least one diamond")
    topology = Topology(f"diamond-{num_diamonds}")
    for index in range(num_diamonds):
        left = f"j{index}"
        right = f"j{index + 1}"
        topology.add_link(left, f"u{index}", latency)
        topology.add_link(left, f"l{index}", latency)
        topology.add_link(f"u{index}", right, latency)
        topology.add_link(f"l{index}", right, latency)
    topology.attach_prefix(f"j{num_diamonds}", "10.0.0.0/24")
    return topology


def fattree(
    k: int, latency: float = LAN_LATENCY, hosts_per_edge: int = 0
) -> Topology:
    """A k-ary fattree [Al-Fares et al., SIGCOMM'08].

    ``k`` pods, each with k/2 edge (ToR) and k/2 aggregation switches, plus
    (k/2)^2 core switches -- 5k^2/4 switches total, diameter 4.  Device
    names: ``core_i``, ``agg_p_i``, ``edge_p_i``.

    ``hosts_per_edge=0`` (default) models switches only: each ToR gets one
    external /24 standing for its rack subnet.  With ``hosts_per_edge=h``
    every ToR additionally connects ``h`` rack-host devices
    (``host_p_i_j``) that run their own verifier agents -- the prefixes
    move onto the hosts (one /24 each), the diameter grows to 6, and the
    device count becomes ``5k^2/4 + h*k^2/2`` (``k=16, h=8`` gives the
    1,024-host / 1,344-device flagship of the fleet scale sweep).
    """
    if k < 2 or k % 2:
        raise ValueError(f"fattree arity must be even and >= 2, got {k}")
    if hosts_per_edge < 0:
        raise ValueError(f"hosts_per_edge must be >= 0, got {hosts_per_edge}")
    half = k // 2
    name = f"ft-{k}" if not hosts_per_edge else f"ft-{k}h{hosts_per_edge}"
    topology = Topology(name)
    cores = [f"core_{i}" for i in range(half * half)]
    for pod in range(k):
        for index in range(half):
            agg = f"agg_{pod}_{index}"
            edge = f"edge_{pod}_{index}"
            # Aggregation <-> core: agg i of each pod connects to cores
            # [i*half, (i+1)*half).
            for core_index in range(index * half, (index + 1) * half):
                topology.add_link(agg, cores[core_index], latency)
            # Edge <-> all aggregation switches in the pod.
            for peer in range(half):
                topology.add_link(edge, f"agg_{pod}_{peer}", latency)
            subnet = pod * half + index
            if hosts_per_edge:
                for offset in range(hosts_per_edge):
                    host = f"host_{pod}_{index}_{offset}"
                    topology.add_link(edge, host, latency)
                    rack = subnet * hosts_per_edge + offset
                    topology.attach_prefix(
                        host,
                        f"10.{(rack >> 8) & 0xFF}.{rack & 0xFF}.0/24",
                    )
            else:
                topology.attach_prefix(
                    edge, f"10.{(subnet >> 8) & 0xFF}.{subnet & 0xFF}.0/24"
                )
    return topology


def clos(
    num_spines: int,
    num_leaves: int,
    latency: float = LAN_LATENCY,
    prefixes_per_leaf: int = 1,
) -> Topology:
    """A two-tier leaf-spine Clos fabric (the NGDC stand-in's building block)."""
    if num_spines < 1 or num_leaves < 1:
        raise ValueError("clos needs at least one spine and one leaf")
    topology = Topology(f"clos-{num_spines}x{num_leaves}")
    for leaf in range(num_leaves):
        for spine in range(num_spines):
            topology.add_link(f"leaf_{leaf}", f"spine_{spine}", latency)
        for offset in range(prefixes_per_leaf):
            subnet = leaf * prefixes_per_leaf + offset
            topology.attach_prefix(
                f"leaf_{leaf}", f"10.{(subnet >> 8) & 0xFF}.{subnet & 0xFF}.0/24"
            )
    return topology


def three_tier_clos(
    num_pods: int,
    leaves_per_pod: int,
    spines_per_pod: int,
    num_cores: int,
    latency: float = LAN_LATENCY,
) -> Topology:
    """A three-tier Clos DC: pods of leaf/spine plus a core layer (NGDC)."""
    topology = Topology(
        f"clos3-{num_pods}x{leaves_per_pod}x{spines_per_pod}x{num_cores}"
    )
    for pod in range(num_pods):
        for leaf in range(leaves_per_pod):
            name = f"leaf_{pod}_{leaf}"
            for spine in range(spines_per_pod):
                topology.add_link(name, f"spine_{pod}_{spine}", latency)
            subnet = pod * leaves_per_pod + leaf
            topology.attach_prefix(
                name, f"10.{(subnet >> 8) & 0xFF}.{subnet & 0xFF}.0/24"
            )
        for spine in range(spines_per_pod):
            # Stripe pod spines across the core layer.
            for core in range(spine, num_cores, spines_per_pod):
                topology.add_link(f"spine_{pod}_{spine}", f"core_{core}", latency)
    return topology


def synthetic_wan(
    name: str,
    num_devices: int,
    num_links: int,
    seed: int,
    prefixes_per_device: int = 1,
) -> Topology:
    """A connected WAN-like graph with geography-derived latencies.

    Devices get random positions in the unit square; a random spanning tree
    guarantees connectivity, then the shortest remaining candidate edges
    are added until ``num_links`` is reached (short links first mirrors how
    real WANs prefer nearby sites).  Every device originates
    ``prefixes_per_device`` external /24 prefixes.
    """
    if num_devices < 2:
        raise ValueError("a WAN needs at least two devices")
    min_links = num_devices - 1
    max_links = num_devices * (num_devices - 1) // 2
    if not min_links <= num_links <= max_links:
        raise ValueError(
            f"link count {num_links} out of range [{min_links}, {max_links}] "
            f"for {num_devices} devices"
        )
    rng = random.Random(seed)
    topology = Topology(name)
    names = [f"{name}-r{i}" for i in range(num_devices)]
    positions = {device: (rng.random(), rng.random()) for device in names}

    def link_latency(a: str, b: str) -> float:
        (xa, ya), (xb, yb) = positions[a], positions[b]
        distance = math.hypot(xa - xb, ya - yb)
        return max(distance * WAN_LATENCY_SCALE, 1e-4)

    # Random spanning tree (random parent among already-joined devices).
    joined = [names[0]]
    topology.add_device(names[0])
    for device in names[1:]:
        parent = rng.choice(joined)
        topology.add_link(device, parent, link_latency(device, parent))
        joined.append(device)

    candidates = [
        (link_latency(a, b), a, b)
        for i, a in enumerate(names)
        for b in names[i + 1 :]
        if not topology.has_link(a, b)
    ]
    candidates.sort()
    for latency, a, b in candidates[: num_links - (num_devices - 1)]:
        topology.add_link(a, b, latency)

    for index, device in enumerate(names):
        for offset in range(prefixes_per_device):
            subnet = index * prefixes_per_device + offset
            topology.attach_prefix(
                device, f"10.{(subnet >> 8) & 0xFF}.{subnet & 0xFF}.0/24"
            )
    return topology
