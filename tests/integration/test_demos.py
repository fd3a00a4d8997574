"""§9.1's five functionality demos, each with correct and erroneous data
planes ("We run each demo with correct and erroneous data planes.  The
network always computes the right results.")."""

import pytest

from repro.core import Tulkun
from repro.dataplane.actions import Drop, Forward
from repro.dataplane.errors import inject_blackhole, inject_waypoint_bypass
from repro.dataplane.routes import PRIORITY_ERROR, RouteConfig, install_routes
from repro.packetspace.fields import DSTIP_ONLY_LAYOUT
from repro.packetspace.predicate import PredicateFactory
from repro.planner import plan_invariant
from repro.spec import library
from repro.topology.graph import Topology


@pytest.fixture()
def demo_topology():
    """The §9.1 5-switch network (Figure 2a plus prefixes at B and C...
    the paper's demos also target C; we attach prefixes at B, W and D)."""
    topology = Topology("demo")
    for a, b in [("S", "A"), ("A", "B"), ("A", "W"), ("B", "W"), ("B", "D"), ("W", "D")]:
        topology.add_link(a, b, 10e-6)
    topology.attach_prefix("D", "10.0.0.0/24")
    topology.attach_prefix("B", "10.0.1.0/24")
    topology.attach_prefix("W", "10.0.2.0/24")
    topology.attach_prefix("S", "10.0.3.0/24")
    return topology


@pytest.fixture()
def tulkun(demo_topology):
    return Tulkun(demo_topology, PredicateFactory(DSTIP_ONLY_LAYOUT))


def fresh_fibs(tulkun, ecmp="any"):
    return install_routes(tulkun.topology, tulkun.factory, RouteConfig(ecmp=ecmp))


def fresh_deployment(tulkun, ecmp="any"):
    fibs = fresh_fibs(tulkun, ecmp)
    return tulkun.deploy(fibs), fibs


class TestDemo1WaypointReachability:
    def test_correct(self, tulkun):
        fibs = fresh_fibs(tulkun)
        packets = tulkun.factory.dst_prefix("10.0.0.0/24")
        # pin A toward W so every path waypoints W
        fibs["A"].insert(PRIORITY_ERROR, packets, Forward(["W"]))
        deployment = tulkun.deploy(fibs)
        invariant = library.waypoint_reachability(packets, "S", "W", "D")
        assert deployment.verify(invariant).holds

    def test_erroneous(self, tulkun):
        deployment, fibs = fresh_deployment(tulkun)
        packets = tulkun.factory.dst_prefix("10.0.0.0/24")
        inject_waypoint_bypass(fibs, "A", "B", packets, label="10.0.0.0/24")
        deployment_fresh = tulkun.deploy(fibs)
        invariant = library.waypoint_reachability(packets, "S", "W", "D")
        assert not deployment_fresh.verify(invariant).holds


class TestDemo2Multicast:
    def test_correct(self, tulkun):
        fibs = fresh_fibs(tulkun)
        space = tulkun.factory.dst_prefix("10.0.4.0/24")
        # hand-build multicast: S -> A -> {B, W} (ALL), deliver at B and W
        fibs["S"].insert(PRIORITY_ERROR, space, Forward(["A"]))
        fibs["A"].insert(PRIORITY_ERROR, space, Forward(["B", "W"], kind="ALL"))
        from repro.dataplane.actions import Deliver

        fibs["B"].insert(PRIORITY_ERROR, space, Deliver())
        fibs["W"].insert(PRIORITY_ERROR, space, Deliver())
        deployment = tulkun.deploy(fibs)
        invariant = library.multicast(space, "S", ["B", "W"])
        plan = plan_invariant(invariant, tulkun.topology)
        assert deployment.verify_plan(plan).holds

    def test_erroneous(self, tulkun):
        fibs = fresh_fibs(tulkun)
        space = tulkun.factory.dst_prefix("10.0.4.0/24")
        fibs["S"].insert(PRIORITY_ERROR, space, Forward(["A"]))
        # ANY instead of ALL: only one destination gets the packet
        fibs["A"].insert(PRIORITY_ERROR, space, Forward(["B", "W"], kind="ANY"))
        from repro.dataplane.actions import Deliver

        fibs["B"].insert(PRIORITY_ERROR, space, Deliver())
        fibs["W"].insert(PRIORITY_ERROR, space, Deliver())
        deployment = tulkun.deploy(fibs)
        invariant = library.multicast(space, "S", ["B", "W"])
        assert not deployment.verify(invariant).holds


class TestDemo3Anycast:
    def test_correct(self, tulkun):
        fibs = fresh_fibs(tulkun)
        space = tulkun.factory.dst_prefix("10.0.5.0/24")
        fibs["S"].insert(PRIORITY_ERROR, space, Forward(["A"]))
        fibs["A"].insert(PRIORITY_ERROR, space, Forward(["B", "W"], kind="ANY"))
        from repro.dataplane.actions import Deliver

        fibs["B"].insert(PRIORITY_ERROR, space, Deliver())
        fibs["W"].insert(PRIORITY_ERROR, space, Deliver())
        deployment = tulkun.deploy(fibs)
        invariant = library.anycast(space, "S", "B", "W")
        assert deployment.verify(invariant).holds

    def test_erroneous(self, tulkun):
        fibs = fresh_fibs(tulkun)
        space = tulkun.factory.dst_prefix("10.0.5.0/24")
        fibs["S"].insert(PRIORITY_ERROR, space, Forward(["A"]))
        fibs["A"].insert(PRIORITY_ERROR, space, Forward(["B", "W"], kind="ALL"))
        from repro.dataplane.actions import Deliver

        fibs["B"].insert(PRIORITY_ERROR, space, Deliver())
        fibs["W"].insert(PRIORITY_ERROR, space, Deliver())
        deployment = tulkun.deploy(fibs)
        invariant = library.anycast(space, "S", "B", "W")
        assert not deployment.verify(invariant).holds


class TestDemo4DifferentIngressConsistency:
    def test_correct(self, tulkun):
        deployment, _ = fresh_deployment(tulkun)
        packets = tulkun.factory.dst_prefix("10.0.0.0/24")
        invariant = library.different_ingress_same_reachability(
            packets, ["S", "B"], "D"
        )
        assert deployment.verify(invariant).holds

    def test_erroneous(self, tulkun):
        deployment, fibs = fresh_deployment(tulkun)
        packets = tulkun.factory.dst_prefix("10.0.0.0/24")
        inject_blackhole(fibs, "B", packets, label="10.0.0.0/24")
        fresh = tulkun.deploy(fibs)
        invariant = library.different_ingress_same_reachability(
            packets, ["S", "B"], "D"
        )
        assert not fresh.verify(invariant).holds


class TestDemo5AllShortestPath:
    def test_correct(self, tulkun):
        deployment, _ = fresh_deployment(tulkun)
        packets = tulkun.factory.dst_prefix("10.0.0.0/24")
        invariant = library.all_shortest_path_availability(packets, "S", "D")
        assert deployment.verify(invariant).holds

    def test_erroneous(self, tulkun):
        deployment, fibs = fresh_deployment(tulkun)
        packets = tulkun.factory.dst_prefix("10.0.0.0/24")
        fibs["A"].insert(PRIORITY_ERROR, packets, Forward(["W"]), label="pin")
        fresh = tulkun.deploy(fibs)
        invariant = library.all_shortest_path_availability(packets, "S", "D")
        report = fresh.verify(invariant)
        assert not report.holds
        assert report.violations
