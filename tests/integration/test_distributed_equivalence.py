"""Property-based end-to-end check: the distributed DVM fixpoint equals
centralized Algorithm 1 on random topologies, data planes and updates.

This is the strongest correctness statement in the suite: whatever the
network shape, ECMP layout and update sequence, the eventually-consistent
distributed computation converges to the exact counting verdict.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.counting import count_dpvnet
from repro.dataplane.actions import Drop, Forward
from repro.dataplane.lec import build_lec_table
from repro.dataplane.routes import PRIORITY_ERROR, RouteConfig, install_routes
from repro.packetspace.fields import DSTIP_ONLY_LAYOUT
from repro.packetspace.predicate import PredicateFactory
from repro.planner import plan_invariant
from repro.simulator.network import SimulatedNetwork
from repro.spec import library
from repro.topology.generators import synthetic_wan


def reference_min_count(plan, tables, packets):
    """Centralized verdict with the same minimal-info projection."""

    def action_of(device):
        return tables[device].action_for(packets)

    counts = count_dpvnet(plan.dpvnet, action_of)
    return {
        ingress: min(counts[node_id].scalars())
        for ingress, node_id in plan.root_nodes.items()
    }


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_updates=st.integers(0, 4),
    ecmp=st.sampled_from(["any", "single"]),
)
def test_distributed_equals_centralized(seed, num_updates, ecmp):
    rng = random.Random(seed)
    factory = PredicateFactory(DSTIP_ONLY_LAYOUT)
    topology = synthetic_wan("eq", 7, 11, seed=seed % 100)
    fibs = install_routes(topology, factory, RouteConfig(ecmp=ecmp, seed=seed))
    destination = rng.choice(topology.devices_with_prefixes())
    cidr = topology.external_prefixes(destination)[0]
    packets = factory.dst_prefix(cidr)
    ingress = rng.choice([d for d in topology.devices if d != destination])
    invariant = library.bounded_reachability(packets, ingress, destination, 2)
    plan = plan_invariant(invariant, topology)

    network = SimulatedNetwork(topology, fibs, factory)
    network.install_plan("eq", plan)

    # random localized updates: reroutes and drops on sub-prefixes
    for _ in range(num_updates):
        device = rng.choice([d for d in topology.devices if d != destination])
        slice_pred = factory.dst_prefix(
            f"{cidr.rsplit('.', 1)[0]}.{rng.randrange(0, 255) & 0xC0}/26"
        )
        if rng.random() < 0.3:
            action = Drop()
        else:
            action = Forward([rng.choice(list(topology.neighbors(device)))])
        network.fib_update(
            device,
            lambda d=device, p=slice_pred, a=action: fibs[d].insert(
                PRIORITY_ERROR, p, a, label="h"
            ),
        )

    tables = {
        device: build_lec_table(fib, factory) for device, fib in fibs.items()
    }

    # Compare per-region minimum counts at the ingress root.
    verdicts = network.verdicts("eq")
    assert verdicts, "root device must report verdicts"
    covered = factory.empty()
    for verdict in verdicts:
        covered = covered | verdict.predicate
        # reference on this region: one action per device is guaranteed
        # only per sub-region, so refine by splitting on the verdict's
        # region through every device's classes.
        region_tables = tables

        def action_of(device, region=verdict.predicate):
            return region_tables[device].action_for(region)

        if all(
            tables[device].action_for(verdict.predicate) is not None
            for device in topology.devices
        ):
            counts = count_dpvnet(plan.dpvnet, action_of)
            reference = counts[plan.root_nodes[ingress]]
            expected_min = min(reference.scalars())
            # The root combines its children's projected minima, so its
            # local set may hold several values; the verdict-relevant
            # quantity for an `exist >= 1` invariant is the minimum
            # (Prop. 1), which must match the exact computation.
            assert min(verdict.counts.scalars()) == expected_min, (
                f"seed={seed} region mismatch"
            )
            assert verdict.holds == plan.holds(reference.tuples), (
                f"seed={seed} verdict mismatch"
            )
    assert covered == packets, "verdicts must cover the packet space"
