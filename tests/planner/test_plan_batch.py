"""A batch plans each DPVNet once and plans what one-at-a-time planning does.

``plan_invariants`` keys a DPVNet by what ``build_dpvnet`` reads of an
invariant -- the planned path expressions, the ingresses and the fault
scenes -- and hands one DPVNet, task and root object to every invariant
with that key.  Checked here, on INet2 at 4 prefixes per device plus a
compound (``full``), a ``local`` and fault-tolerant invariants, and
pairs that share a regex but differ in ingress set, length filter or
fault scenes:

* plan by plan, the batch equals ``plan_invariant`` -- DPVNets node for
  node, device tasks, roots, mode, count expressions and the evaluator;
* same-shape plans share one ``DpvNet`` and ``build_dpvnet`` runs once
  per shape;
* ``group_plans`` groups both lists alike, and installing either on the
  simulator sends the same frames and bytes and reads the same verdicts.
"""

import itertools
from dataclasses import replace

import pytest

from repro.bench.workloads import build_workload
from repro.dvm.agent import group_plans
from repro.planner import plan_invariant, plan_invariants, tasks
from repro.simulator.network import SimulatedNetwork
from repro.spec import library
from repro.spec.ast import SHORTEST, LengthFilter, Match
from repro.spec.parser import AnyK
from repro.topology.graph import FaultScene

DESTINATION = "INet2-r5"
SOURCE = "INet2-r0"


@pytest.fixture(scope="module")
def workload():
    return build_workload("INet2", prefixes_per_device=4)


def with_filter(invariant, delta):
    """``invariant`` with its one path expression's filter at ``+delta``."""
    path = invariant.behavior.path
    return replace(
        invariant,
        behavior=Match(
            invariant.behavior.op,
            replace(path, length_filters=(LengthFilter("<=", SHORTEST, delta),)),
        ),
        name=f"{invariant.name}-le{delta}",
    )


@pytest.fixture(scope="module")
def invariants(workload):
    """The workload's 36 reachability invariants, then the extras."""
    base = [plan.invariant for _, plan in workload.plans]
    reach = next(
        invariant
        for invariant in base
        if invariant.name.startswith(f"reach-{DESTINATION}-")
    )
    prefixes = workload.topology.external_prefixes(DESTINATION)
    spaces = [workload.factory.dst_prefix(cidr) for cidr in prefixes[:2]]
    scene = FaultScene([(SOURCE, "INet2-r1")])
    extras = [
        # compound: two regexes, "full" mode, twice over distinct spaces
        *(
            library.multicast(space, SOURCE, [DESTINATION, "INet2-r3"])
            for space in spaces
        ),
        # "local" (equal), twice over distinct spaces
        *(
            library.all_shortest_path_availability(space, SOURCE, DESTINATION)
            for space in spaces
        ),
        # same regex, a narrower ingress set
        replace(reach, ingress_set=reach.ingress_set[:3], name="few-ingresses"),
        # same regex, a tighter length filter
        with_filter(reach, 1),
        # same regex, fault scenes: a concrete one, then any one link
        replace(reach, fault_scenes=(scene,), name="scene"),
        replace(reach, fault_scenes=(AnyK(1),), name="any-1"),
        replace(
            reach, fault_scenes=(AnyK(1),), packet_space=spaces[1], name="any-1b"
        ),
    ]
    return base + extras


@pytest.fixture(scope="module")
def alone(invariants, workload):
    return [
        plan_invariant(invariant, workload.topology) for invariant in invariants
    ]


@pytest.fixture(scope="module")
def batch(invariants, workload):
    return plan_invariants(invariants, workload.topology)


def dpvnet_rows(dpvnet):
    """Everything a DPVNet says, node for node, comparable with ``==``."""
    return (
        dpvnet.num_regexes,
        dpvnet.scenes,
        {ingress: node.node_id for ingress, node in dpvnet.roots.items()},
        [node.node_id for node in dpvnet.topo_order],
        {
            node_id: (
                node.dev,
                node.accept,
                {
                    dev: (edge.child.node_id, edge.labels)
                    for dev, edge in node.children.items()
                },
                node.parent_ids,
            )
            for node_id, node in dpvnet.nodes.items()
        },
    )


def test_the_batch_plans_what_one_at_a_time_plans(alone, batch):
    assert len(batch) == len(alone)
    for single, batched in zip(alone, batch):
        name = single.invariant.name
        assert batched.invariant is single.invariant
        assert dpvnet_rows(batched.dpvnet) == dpvnet_rows(single.dpvnet), name
        assert batched.device_tasks == single.device_tasks, name
        assert batched.root_nodes == single.root_nodes, name
        assert batched.mode == single.mode, name
        assert batched.count_exprs == single.count_exprs, name
        for counts in itertools.product(range(3), repeat=single.dim):
            assert batched.universe_satisfies(
                counts
            ) == single.universe_satisfies(counts), (name, counts)


def test_the_extras_cover_every_mode(batch):
    assert {plan.mode for plan in batch} == {"minimal", "full", "local"}


def test_same_shape_plans_share_one_dpvnet(workload, invariants, monkeypatch):
    built = []
    original = tasks.build_dpvnet

    def counting(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(tasks, "build_dpvnet", counting)
    batch = plan_invariants(invariants, workload.topology)
    # 9 destinations; multicast and all-shortest-path once each; then
    # fewer ingresses, the tighter filter, the concrete scene and any-1.
    assert len(built) == 9 + 2 + 4
    assert len({id(plan.dpvnet) for plan in batch}) == len(built)
    by_destination = {}
    for plan in batch[:36]:
        destination = plan.invariant.name.split("-", 1)[1].rsplit("-", 1)[0]
        by_destination.setdefault(destination, []).append(plan)
    assert len(by_destination) == 9
    for plans in by_destination.values():
        first = plans[0]
        for plan in plans[1:]:
            assert plan.dpvnet is first.dpvnet
            assert plan.device_tasks is first.device_tasks
            assert plan.root_nodes is first.root_nodes
            assert plan._evaluator is not first._evaluator
    assert batch[-1].dpvnet is batch[-2].dpvnet  # any-1 over two spaces


def test_any_k_placeholders_are_told_apart(workload, invariants):
    # AnyK(1) == AnyK(2) as scenes: the key must hold what they expand to.
    reach = invariants[-1]
    plans = plan_invariants(
        [replace(reach, fault_scenes=(AnyK(k),)) for k in (1, 2)],
        workload.topology,
    )
    links = len(workload.topology.links)
    assert [len(plan.scenes) for plan in plans] == [
        1 + links,
        1 + links + links * (links - 1) // 2,
    ]


def test_nothing_outlives_the_call(workload, invariants):
    first = plan_invariants(invariants[:4], workload.topology)
    second = plan_invariants(invariants[:4], workload.topology)
    assert first[0].dpvnet is not second[0].dpvnet


def group_rows(plans):
    return [
        (group.plan_id, group.members, group.plan.invariant.packet_space)
        for group in group_plans(plans)
    ]


def test_grouping_and_wire_are_unchanged(workload, alone, batch):
    ids = [f"p{index}" for index in range(len(alone))]
    assert group_rows(dict(zip(ids, batch))) == group_rows(dict(zip(ids, alone)))
    worlds = []
    for plans in (alone, batch):
        network = SimulatedNetwork(workload.topology, workload.fibs, workload.factory)
        network.install_plans(dict(zip(ids, plans)))
        worlds.append(
            (
                network.stats.messages,
                network.stats.bytes,
                [network.holds(plan_id) for plan_id in ids],
            )
        )
    assert worlds[0] == worlds[1]
    assert worlds[0][0] > 0
    assert any(worlds[0][2]) and not all(worlds[0][2])
