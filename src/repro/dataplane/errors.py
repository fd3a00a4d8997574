"""Error injection for evaluation workloads.

The paper's evaluation injects data plane errors and confirms every tool
finds them (§9.3.1 "Tulkun successfully finds all the errors we
injected").  Each injector installs a high-priority rule that breaks a
specific invariant class: blackholes (drop) and waypoint bypasses
(detour around the required middlebox).
"""

from __future__ import annotations

from typing import Dict

from repro.dataplane.actions import Drop, Forward
from repro.dataplane.fib import Fib, Rule
from repro.dataplane.routes import PRIORITY_ERROR
from repro.packetspace.predicate import Predicate


def inject_blackhole(
    fibs: Dict[str, Fib], device: str, packets: Predicate, label: str = ""
) -> Rule:
    """Make ``device`` silently drop ``packets``.

    Pass the covering CIDR as ``label`` when the data plane must stay
    consumable by prefix-only tools (Delta-net).
    """
    return fibs[device].insert(
        PRIORITY_ERROR, packets, Drop(), label=label or "injected-blackhole"
    )


def inject_waypoint_bypass(
    fibs: Dict[str, Fib],
    device: str,
    detour_next_hop: str,
    packets: Predicate,
    label: str = "",
) -> Rule:
    """Reroute ``packets`` at ``device`` toward ``detour_next_hop``.

    Used to break waypoint invariants: pick a next hop whose shortest path
    to the destination avoids the waypoint.
    """
    return fibs[device].insert(
        PRIORITY_ERROR,
        packets,
        Forward([detour_next_hop]),
        label=label or "injected-bypass",
    )
