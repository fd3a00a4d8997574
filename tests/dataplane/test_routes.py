"""Unit tests for route computation."""

import pytest

from repro.dataplane.actions import ANY, Deliver, Forward
from repro.dataplane.routes import (
    RouteConfig,
    install_routes,
    split_prefix,
)
from repro.topology.generators import fattree, line, paper_example


class TestRouteConfig:
    def test_invalid_ecmp(self):
        with pytest.raises(ValueError):
            RouteConfig(ecmp="best")

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            RouteConfig(rule_scale=0.5)


class TestSplitPrefix:
    def test_no_split(self):
        assert split_prefix("10.0.0.0/24", 1) == []

    def test_three_pieces(self):
        subs = split_prefix("10.0.0.0/24", 3)
        assert len(subs) == 2  # two sub-prefixes + the aggregate = 3 rules
        assert all(sub.endswith("/26") for sub in subs)

    def test_twelve_pieces(self):
        subs = split_prefix("10.0.0.0/24", 12)
        assert len(subs) == 11
        assert all(sub.endswith("/28") for sub in subs)

    def test_host_prefix_cannot_split(self):
        # depth is clamped at the /32 boundary
        subs = split_prefix("10.0.0.1/32", 4)
        assert subs == []


class TestInstallRoutes:
    def test_every_device_routes_every_prefix(self, dst_factory):
        topology = paper_example()
        fibs = install_routes(topology, dst_factory)
        for device in topology.devices:
            # 3 prefixes in the example network
            assert len(fibs[device]) == 3

    def test_destination_delivers(self, dst_factory):
        topology = paper_example()
        fibs = install_routes(topology, dst_factory)
        action = fibs["D"].lookup(dst_factory.dst_prefix("10.0.0.0/24"))
        assert action == Deliver()

    def test_ecmp_any_groups(self, dst_factory):
        topology = paper_example()
        fibs = install_routes(topology, dst_factory, RouteConfig(ecmp="any"))
        action = fibs["A"].lookup(dst_factory.dst_prefix("10.0.0.0/24"))
        assert isinstance(action, Forward)
        assert action.kind == ANY
        assert action.next_hops == ("B", "W")

    def test_ecmp_single_picks_one(self, dst_factory):
        topology = paper_example()
        fibs = install_routes(topology, dst_factory, RouteConfig(ecmp="single"))
        action = fibs["A"].lookup(dst_factory.dst_prefix("10.0.0.0/24"))
        assert len(action.next_hops) == 1

    def test_routes_follow_shortest_paths(self, dst_factory):
        topology = line(4)
        topology.attach_prefix("d3", "10.0.0.0/24")
        fibs = install_routes(topology, dst_factory)
        predicate = dst_factory.dst_prefix("10.0.0.0/24")
        assert fibs["d0"].lookup(predicate) == Forward(["d1"])
        assert fibs["d1"].lookup(predicate) == Forward(["d2"])
        assert fibs["d2"].lookup(predicate) == Forward(["d3"])
        assert fibs["d3"].lookup(predicate) == Deliver()

    def test_rule_scale_multiplies_rules(self, dst_factory):
        topology = paper_example()
        base = install_routes(topology, dst_factory)
        scaled = install_routes(
            topology, dst_factory, RouteConfig(rule_scale=3.39)
        )
        base_total = sum(len(fib) for fib in base.values())
        scaled_total = sum(len(fib) for fib in scaled.values())
        assert scaled_total == base_total * 3

    def test_rule_scale_preserves_forwarding(self, dst_factory):
        topology = paper_example()
        base = install_routes(topology, dst_factory)
        scaled = install_routes(topology, dst_factory, RouteConfig(rule_scale=4))
        probe = dst_factory.dst_prefix("10.0.0.77/32")
        for device in topology.devices:
            assert base[device].lookup(probe) == scaled[device].lookup(probe)

    def test_fattree_ecmp_width(self, dst_factory):
        topology = fattree(4)
        fibs = install_routes(topology, dst_factory)
        prefix = topology.external_prefixes("edge_1_0")[0]
        action = fibs["edge_0_0"].lookup(dst_factory.dst_prefix(prefix))
        # edge uplinks to both aggregation switches
        assert len(action.next_hops) == 2
