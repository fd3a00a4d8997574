"""Cross-check: distributed Tulkun vs all centralized baselines on random
networks with random injected errors -- every tool must agree (§9.3.1:
"In all simulations, Tulkun successfully finds all the errors we
injected")."""

import random

import pytest

from repro.baselines import ALL_BASELINES
from repro.dataplane.errors import inject_blackhole
from repro.dataplane.routes import RouteConfig, install_routes
from repro.packetspace.fields import DSTIP_ONLY_LAYOUT
from repro.packetspace.predicate import PredicateFactory
from repro.planner import plan_invariant
from repro.simulator.network import SimulatedNetwork
from repro.spec import library
from repro.topology.generators import synthetic_wan
from tests.dataplane.test_errors import inject_loop


def build_setting(seed, inject=None):
    rng = random.Random(seed)
    factory = PredicateFactory(DSTIP_ONLY_LAYOUT)
    topology = synthetic_wan(f"xc{seed}", 8, 13, seed=seed)
    fibs = install_routes(topology, factory, RouteConfig(ecmp="any"))
    destination = rng.choice(topology.devices_with_prefixes())
    cidr = topology.external_prefixes(destination)[0]
    packets = factory.dst_prefix(cidr)
    if inject == "blackhole":
        candidates = [d for d in topology.devices if d != destination]
        inject_blackhole(fibs, rng.choice(candidates), packets, label=cidr)
    elif inject == "loop":
        device = rng.choice(
            [d for d in topology.devices if d != destination]
        )
        peer = rng.choice(list(topology.neighbors(device)))
        if peer != destination:
            inject_loop(fibs, device, peer, packets, label=cidr)
        else:
            inject_blackhole(fibs, device, packets, label=cidr)
    ingresses = [d for d in topology.devices if d != destination]
    invariant = library.bounded_reachability(
        packets, ingresses[0], destination, 2
    )
    # widen to all ingresses
    from repro.bench.workloads import reachability_invariant

    invariant = reachability_invariant(
        factory, topology, destination, cidr, ingresses
    )
    plan = plan_invariant(invariant, topology)
    return factory, topology, fibs, plan


def tulkun_verdict(factory, topology, fibs, plan):
    network = SimulatedNetwork(topology, fibs, factory)
    network.install_plan("p", plan)
    return network.holds("p")


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("inject", [None, "blackhole", "loop"])
def test_all_tools_agree(seed, inject):
    factory, topology, fibs, plan = build_setting(seed, inject)
    expected = tulkun_verdict(factory, topology, fibs, plan)
    for verifier_cls in ALL_BASELINES:
        verifier = verifier_cls(factory)
        verifier.load_snapshot(fibs)
        result = verifier.verify([("p", plan)])
        assert result.holds == expected, (
            f"{verifier_cls.name} disagrees with Tulkun "
            f"(seed={seed}, inject={inject})"
        )


@pytest.mark.parametrize("seed", range(4))
def test_injected_blackhole_always_detected(seed):
    factory, topology, fibs, plan = build_setting(seed, "blackhole")
    assert tulkun_verdict(factory, topology, fibs, plan) is False
