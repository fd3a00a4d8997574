"""Edge cases of the on-device verifier lifecycle and protocol."""

import pytest

from repro.dataplane.routes import PRIORITY_ERROR, RouteConfig, install_routes
from repro.dvm.messages import KeepaliveMessage, OpenMessage, UpdateMessage
from repro.dvm.verifier import OnDeviceVerifier
from repro.planner import plan_invariant
from repro.spec import library
from repro.topology.generators import paper_example


@pytest.fixture()
def setting(dst_factory):
    topology = paper_example()
    fibs = install_routes(topology, dst_factory, RouteConfig(ecmp="any"))
    packets = dst_factory.dst_prefix("10.0.0.0/23")
    plan = plan_invariant(
        library.bounded_reachability(packets, "S", "D", 2), topology
    )
    return topology, fibs, packets, plan


class TestLifecycle:
    def test_install_on_uninvolved_device_is_noop(self, dst_factory):
        from repro.dataplane.routes import install_routes
        from repro.topology.generators import line

        # d0 -> d2 reachability never involves d3.
        topology = line(4)
        topology.attach_prefix("d2", "10.0.0.0/24")
        fibs = install_routes(topology, dst_factory)
        plan = plan_invariant(
            library.reachability(
                dst_factory.dst_prefix("10.0.0.0/24"), "d0", "d2"
            ),
            topology,
        )
        assert "d3" not in plan.device_tasks
        verifier = OnDeviceVerifier("d3", dst_factory, fibs["d3"])
        assert verifier.install_plan("p", plan) == []

    def test_unknown_plan_message_ignored(self, dst_factory, setting):
        topology, fibs, _, _ = setting
        verifier = OnDeviceVerifier("A", dst_factory, fibs["A"])
        message = UpdateMessage(
            plan_id="ghost", up_node="A#1", down_node="B#1",
            withdrawn=(), results=(),
        )
        assert verifier.on_message(message) == []

    def test_open_and_keepalive_are_inert(self, dst_factory, setting):
        topology, fibs, _, plan = setting
        verifier = OnDeviceVerifier("A", dst_factory, fibs["A"], topology.neighbors("A"))
        verifier.install_plan("p", plan)
        assert verifier.on_message(OpenMessage(plan_id="p", device="B")) == []
        assert (
            verifier.on_message(KeepaliveMessage(plan_id="p", device="B")) == []
        )

    def test_message_counters(self, dst_factory, setting):
        topology, fibs, _, plan = setting
        verifier = OnDeviceVerifier("A", dst_factory, fibs["A"], topology.neighbors("A"))
        verifier.install_plan("p", plan)
        before = verifier.messages_received
        verifier.on_message(OpenMessage(plan_id="p", device="B"))
        assert verifier.messages_received == before + 1

    def test_root_verdicts_empty_for_non_root_device(self, dst_factory, setting):
        topology, fibs, _, plan = setting
        verifier = OnDeviceVerifier("W", dst_factory, fibs["W"], topology.neighbors("W"))
        verifier.install_plan("p", plan)
        assert verifier.root_verdicts("p") == []

    def test_root_verdicts_unknown_plan(self, dst_factory, setting):
        topology, fibs, _, _ = setting
        verifier = OnDeviceVerifier("S", dst_factory, fibs["S"])
        assert verifier.root_verdicts("nope") == []

    def test_update_for_unknown_node_ignored(self, dst_factory, setting):
        topology, fibs, _, plan = setting
        verifier = OnDeviceVerifier("A", dst_factory, fibs["A"], topology.neighbors("A"))
        verifier.install_plan("p", plan)
        message = UpdateMessage(
            plan_id="p", up_node="Z#99", down_node="B#1",
            withdrawn=(), results=(),
        )
        assert verifier.on_message(message) == []

    def test_fib_noop_change_sends_nothing(self, dst_factory, setting):
        topology, fibs, packets, plan = setting
        verifier = OnDeviceVerifier("A", dst_factory, fibs["A"], topology.neighbors("A"))
        verifier.install_plan("p", plan)
        # insert + remove: net effect zero
        rule = fibs["A"].insert(PRIORITY_ERROR, packets, fibs["A"].get(
            next(iter([r.rule_id for r in fibs["A"]]))
        ).action)
        fibs["A"].remove(rule.rule_id)
        assert verifier.on_fib_changed() == []

    def test_fib_changed_without_dirty_is_noop(self, dst_factory, setting):
        topology, fibs, _, plan = setting
        verifier = OnDeviceVerifier("A", dst_factory, fibs["A"], topology.neighbors("A"))
        verifier.install_plan("p", plan)
        assert verifier.on_fib_changed() == []


class TestMultiplePlans:
    def test_independent_contexts(self, dst_factory, setting):
        topology, fibs, packets, plan = setting
        other = plan_invariant(
            library.waypoint_reachability(packets, "S", "W", "D"), topology
        )
        verifier = OnDeviceVerifier("S", dst_factory, fibs["S"], topology.neighbors("S"))
        verifier.install_plan("reach", plan)
        before = verifier.root_verdicts("reach")
        verifier.install_plan("waypoint", other)
        assert verifier.root_verdicts("reach") == before != []
        assert verifier.root_verdicts("waypoint") != []
