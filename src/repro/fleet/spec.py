"""The serializable fleet description and its deterministic workload.

A :class:`FleetSpec` is the *entire* shared state of a fleet: the
launcher writes it to a JSON file, every worker process re-reads it and
deterministically rebuilds the same topology, FIBs, invariant plans and
sharding plan from the same seeds.  Nothing else crosses the process
boundary at boot -- no pickles, no sockets, no registry.

Topology names: ``ftK`` is a k-ary fattree (``ft4``, ``ft16``), and
``ftKhH`` attaches ``H`` rack hosts per ToR (``ft16h8`` is the
1,024-host flagship); anything else resolves as a built-in dataset
(``INet2``, ``B4-13``, ...).
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import asdict, dataclass
from typing import List

from repro.bench.workloads import (
    RuleUpdate,
    Workload,
    random_rule_updates,
    reachability_invariant,
)
from repro.dataplane.routes import RouteConfig, install_routes
from repro.packetspace.fields import DSTIP_ONLY_LAYOUT
from repro.packetspace.predicate import PredicateFactory
from repro.planner import plan_invariants
from repro.topology.graph import Topology

__all__ = [
    "FleetSpec",
    "build_fleet_workload",
    "fleet_topology",
    "fleet_update_stream",
]

_FATTREE_NAME = re.compile(r"^ft(\d+)(?:h(\d+))?$")

#: Seed offset of the fleet's shared rule-update stream (so updates
#: never reuse the routing seed).
_UPDATE_SEED_OFFSET = 12


@dataclass
class FleetSpec:
    """Everything a worker needs to rebuild its share of the fleet."""

    topology: str = "ft4"
    workers: int = 2
    base_port: int = 27100
    #: Destination prefix owners kept for the workload (0 = all).
    destinations: int = 4
    #: Ingresses sampled per invariant from the pre-prune owner pool
    #: (0 = every owner; sampling keeps k=16 plans tractable).
    ingresses: int = 8
    seed: int = 11
    keepalive_interval: float = 0.5
    op_timeout: float = 60.0
    handshake_timeout: float = 5.0

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FleetSpec":
        fields = json.loads(text)
        if not isinstance(fields, dict):
            raise ValueError("fleet spec must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(fields) - known)
        if unknown:
            raise ValueError(f"unknown fleet spec fields: {unknown}")
        return cls(**fields)


def fleet_topology(name: str) -> Topology:
    """Resolve a fleet topology name: ``ftK``/``ftKhH`` or a dataset."""
    match = _FATTREE_NAME.match(name)
    if match:
        from repro.topology.generators import fattree

        k = int(match.group(1))
        hosts = int(match.group(2)) if match.group(2) else 0
        return fattree(k, hosts_per_edge=hosts)
    from repro.topology.datasets import DATASETS, load_dataset

    lowered = {key.lower(): key for key in DATASETS}
    resolved = lowered.get(name.lower())
    if resolved is None:
        raise KeyError(
            f"unknown fleet topology {name!r}: expected ftK, ftKhH, "
            f"or one of {sorted(DATASETS)}"
        )
    return load_dataset(resolved)


def build_fleet_workload(spec: FleetSpec) -> Workload:
    """Deterministically instantiate the fleet's workload from its spec.

    Every worker calls this with the same spec and gets byte-identical
    plans: destination pruning (via
    :meth:`~repro.topology.graph.Topology.retain_prefixes`), routing and
    ingress sampling are all seeded.  The ingress pool is the *pre-prune*
    owner set, so pruning destinations scales the rule/plan volume down
    without collapsing where traffic originates.
    """
    topology = fleet_topology(spec.topology)
    owner_pool = list(topology.devices_with_prefixes())
    if not owner_pool:
        raise ValueError(f"topology {spec.topology!r} has no prefixes")
    destinations = (
        owner_pool[: spec.destinations] if spec.destinations else owner_pool
    )
    topology.retain_prefixes(destinations)
    factory = PredicateFactory(DSTIP_ONLY_LAYOUT)
    fibs = install_routes(
        topology,
        factory,
        RouteConfig(seed=spec.seed),
    )
    invariants = []
    for destination in destinations:
        pool = [owner for owner in owner_pool if owner != destination]
        if spec.ingresses and len(pool) > spec.ingresses:
            rng = random.Random(f"{spec.seed}:{destination}")
            ingresses = sorted(rng.sample(pool, spec.ingresses))
        else:
            ingresses = pool
        for cidr in topology.external_prefixes(destination):
            invariants.append(
                reachability_invariant(
                    factory,
                    topology,
                    destination,
                    cidr,
                    ingresses,
                    shortest_only=True,
                )
            )
    plans = plan_invariants(invariants, topology)
    return Workload(
        name=topology.name,
        topology=topology,
        factory=factory,
        fibs=fibs,
        plans=[
            (invariant.name, plan) for invariant, plan in zip(invariants, plans)
        ],
        kind="DC",
    )


def fleet_update_stream(
    spec: FleetSpec, workload: Workload, count: int
) -> List[RuleUpdate]:
    """The deterministic incremental-update stream of one fleet.

    Every worker (and the simulator parity check) derives the same
    stream from the same spec, so update ``i`` names the same device
    and rule mutation everywhere -- only the owning worker applies it.
    """
    return random_rule_updates(
        workload, count, seed=spec.seed + _UPDATE_SEED_OFFSET
    )
