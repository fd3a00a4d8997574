"""A burst says each thing once: a device OPENs a plan once per peer
*device*, however many DPVNet edges join the two, and the peer's refresh
is one UPDATE per edge -- in whatever order the devices install.
"""

import random
from collections import deque

import pytest

from repro.baselines import FlashVerifier
from repro.bench.workloads import build_workload
from repro.counting.counts import CountSet
from repro.dataplane.routes import RouteConfig, install_routes
from repro.dvm.messages import OpenMessage, UpdateMessage
from repro.dvm.verifier import OnDeviceVerifier
from repro.packetspace.fields import DSTIP_ONLY_LAYOUT
from repro.packetspace.predicate import PredicateFactory
from repro.planner import plan_invariant
from repro.spec import library
from repro.topology.generators import paper_example
from tests.dvm.test_update_causality import as_function, known


def figure2():
    topology = paper_example()
    factory = PredicateFactory(DSTIP_ONLY_LAYOUT)
    fibs = install_routes(topology, factory, RouteConfig(ecmp="any"))
    packets = factory.dst_prefix("10.0.0.0/23")
    plans = [
        ("waypoint", library.waypoint_reachability(packets, "S", "W", "D")),
        ("bounded", library.bounded_reachability(packets, "S", "D", 2)),
    ]
    plans = [(name, plan_invariant(inv, topology)) for name, inv in plans]
    return topology, factory, fibs, plans


def inet2():
    workload = build_workload("INet2", seed=5, prefixes_per_device=2)
    return workload.topology, workload.factory, workload.fibs, workload.plans


@pytest.fixture(params=[figure2, inet2])
def network(request):
    return request.param()


def peers_of(task):
    """Child devices of a device's task, in first-appearance order."""
    return list(
        dict.fromkeys(dev for node in task.nodes for (_, dev, _) in node.children)
    )


def edges_to(task, peer):
    """(node, parent) edges of ``task`` whose parent lives on ``peer``."""
    return sum(dev == peer for node in task.nodes for (_, dev) in node.parents)


def test_install_opens_each_plan_once_per_peer_device(network):
    topology, factory, fibs, plans = network
    parallel = 0
    for device in topology.devices:
        verifier = OnDeviceVerifier(
            device, factory, fibs[device], topology.neighbors(device)
        )
        for plan_id, plan in plans:
            task = plan.device_tasks.get(device)
            opens = [
                (peer, message.plan_id, message.device)
                for peer, message in verifier.install_plan(plan_id, plan)
                if isinstance(message, OpenMessage)
            ]
            peers = peers_of(task) if task else []
            assert opens == [(peer, plan_id, device) for peer in peers]
            if task:
                edges = sum(len(node.children) for node in task.nodes)
                parallel += edges - len(peers)
    assert parallel > 0  # some device pair is joined by several edges


def children_first(plan, devices):
    order = [node.dev for node in reversed(plan.dpvnet.topo_order)]
    return list(dict.fromkeys(order + list(devices)))


def parents_first(plan, devices):
    return list(reversed(children_first(plan, devices)))


def shuffled(plan, devices):
    devices = list(devices)
    random.Random(19).shuffle(devices)
    return devices


@pytest.mark.parametrize("order", [children_first, parents_first, shuffled])
def test_any_install_order_converges_with_one_refresh_per_edge(network, order):
    topology, factory, fibs, plans = network
    verifiers = {
        device: OnDeviceVerifier(
            device, factory, fibs[device], topology.neighbors(device)
        )
        for device in topology.devices
    }
    queue = deque()
    refreshed = 0
    for plan_id, plan in plans:
        for device in order(plan, topology.devices):
            queue.extend(verifiers[device].install_plan(plan_id, plan))
            # Deliver before the next device installs: frames for a plan
            # the receiver does not hold yet are dropped, which is what
            # the OPEN / refresh exchange is there to repair.
            while queue:
                receiver, message = queue.popleft()
                outgoing = verifiers[receiver].on_message(message)
                if isinstance(message, OpenMessage):
                    task = plan.device_tasks[receiver]
                    installed = plan_id in verifiers[receiver]._contexts
                    assert len(outgoing) == installed * edges_to(
                        task, message.device
                    )
                    assert all(
                        peer == message.device and isinstance(m, UpdateMessage)
                        for peer, m in outgoing
                    )
                    refreshed += len(outgoing)
                queue.extend(outgoing)
    assert refreshed > 0

    for plan_id, plan in plans:
        zero = CountSet.zero(plan.dim)
        for device, task in plan.device_tasks.items():
            child = verifiers[device]._contexts[plan_id]
            for node in task.nodes:
                sent = as_function(known(child.nodes[node.node_id].out), zero)
                for parent_id, parent_dev in node.parents:
                    parent = verifiers[parent_dev]._contexts[plan_id]
                    held = parent.nodes[parent_id].cib_in[node.node_id]
                    assert as_function(known(held), zero) == sent

    oracle = FlashVerifier(factory)
    oracle.load_snapshot(fibs)
    failing = set(oracle.verify(plans).failing_plans)
    for plan_id, _ in plans:
        verdicts = [
            verdict
            for verifier in verifiers.values()
            for verdict in verifier.root_verdicts(plan_id)
        ]
        assert verdicts
        assert all(v.holds for v in verdicts) == (plan_id not in failing)
