"""Unit tests for topology generators."""

import pytest

from repro.planner.dpvnet import enumerate_valid_paths
from repro.spec.ast import SHORTEST, LengthFilter, PathExp
from repro.topology.generators import (
    chained_diamond,
    clos,
    fattree,
    line,
    paper_example,
    ring,
    synthetic_wan,
    three_tier_clos,
)


def shortest_paths(topology, source, destination):
    path_exp = PathExp(
        f"{source} .* {destination}",
        (LengthFilter("<=", SHORTEST, 0),),
        loop_free=True,
    )
    return enumerate_valid_paths(topology, path_exp, [source])


class TestPaperExample:
    def test_shape(self):
        topology = paper_example()
        assert topology.num_devices == 5
        assert topology.num_links == 6
        assert set(topology.neighbors("A")) == {"S", "B", "W"}
        assert topology.external_prefixes("D") == (
            "10.0.0.0/24",
            "10.0.1.0/24",
        )


class TestLineRing:
    def test_line(self):
        topology = line(5)
        assert topology.num_links == 4
        assert topology.shortest_hop_count("d0", "d4") == 4

    def test_line_single(self):
        assert line(1).num_devices == 1

    def test_line_invalid(self):
        with pytest.raises(ValueError):
            line(0)

    def test_ring(self):
        topology = ring(6)
        assert topology.num_links == 6
        assert topology.shortest_hop_count("d0", "d3") == 3
        assert topology.shortest_hop_count("d0", "d5") == 1

    def test_ring_too_small(self):
        with pytest.raises(ValueError):
            ring(2)


class TestChainedDiamond:
    def test_path_count_doubles(self):
        for n in (1, 2, 3, 4):
            topology = chained_diamond(n)
            paths = shortest_paths(topology, "j0", f"j{n}")
            assert len(paths) == 2**n

    def test_invalid(self):
        with pytest.raises(ValueError):
            chained_diamond(0)


class TestFattree:
    def test_k4_shape(self):
        topology = fattree(4)
        # 4 core + 8 agg + 8 edge
        assert topology.num_devices == 20
        assert topology.num_links == 32
        assert topology.is_connected()

    def test_k4_tor_prefixes(self):
        topology = fattree(4)
        tors = topology.devices_with_prefixes()
        assert len(tors) == 8
        assert all(name.startswith("edge_") for name in tors)

    def test_diameter(self):
        assert fattree(4).diameter_hops() == 4

    def test_same_pod_distance(self):
        topology = fattree(4)
        assert topology.shortest_hop_count("edge_0_0", "edge_0_1") == 2

    def test_cross_pod_distance(self):
        topology = fattree(4)
        assert topology.shortest_hop_count("edge_0_0", "edge_1_0") == 4

    def test_cross_pod_path_diversity(self):
        topology = fattree(4)
        paths = shortest_paths(topology, "edge_0_0", "edge_1_0")
        assert len(paths) == 4  # (k/2)^2 core choices

    def test_odd_arity_rejected(self):
        with pytest.raises(ValueError):
            fattree(5)

    def test_k8_counts(self):
        topology = fattree(8)
        assert topology.num_devices == 80  # 16 core + 32 agg + 32 edge
        assert topology.num_links == 256

    def test_closed_forms_through_k16(self):
        # 5k^2/4 switches, k^3/2 links, diameter 4 -- independent of k.
        for k in (4, 6, 8, 16):
            topology = fattree(k)
            assert topology.num_devices == 5 * k * k // 4
            assert topology.num_links == k ** 3 // 2
            assert len(topology.devices_with_prefixes()) == k * k // 2
        assert fattree(6).diameter_hops() == 4

    def test_rack_hosts_move_the_prefixes_and_grow_the_diameter(self):
        k, h = 4, 3
        topology = fattree(k, hosts_per_edge=h)
        assert topology.num_devices == 5 * k * k // 4 + h * k * k // 2
        assert topology.num_links == k ** 3 // 2 + h * k * k // 2
        owners = topology.devices_with_prefixes()
        assert len(owners) == h * k * k // 2
        assert all(owner.startswith("host_") for owner in owners)
        # One distinct rack /24 per host, nothing left on the ToRs.
        prefixes = {
            cidr for owner in owners
            for cidr in topology.external_prefixes(owner)
        }
        assert len(prefixes) == len(owners)
        assert not topology.external_prefixes("edge_0_0")
        assert topology.diameter_hops() == 6
        assert topology.is_connected()

    def test_flagship_host_count(self):
        topology = fattree(16, hosts_per_edge=8)
        assert topology.num_devices == 1344  # 320 switches + 1024 hosts
        assert len(topology.devices_with_prefixes()) == 1024

    def test_negative_hosts_rejected(self):
        with pytest.raises(ValueError):
            fattree(4, hosts_per_edge=-1)


class TestClos:
    def test_leaf_spine(self):
        topology = clos(4, 8)
        assert topology.num_devices == 12
        assert topology.num_links == 32
        assert topology.shortest_hop_count("leaf_0", "leaf_7") == 2

    def test_three_tier(self):
        topology = three_tier_clos(2, 3, 2, 4)
        assert topology.is_connected()
        assert len(topology.devices_with_prefixes()) == 6

    def test_invalid(self):
        with pytest.raises(ValueError):
            clos(0, 4)


class TestSyntheticWan:
    def test_deterministic(self):
        a = synthetic_wan("x", 20, 35, seed=5)
        b = synthetic_wan("x", 20, 35, seed=5)
        assert sorted(l.endpoints for l in a.links) == sorted(
            l.endpoints for l in b.links
        )

    def test_seed_changes_topology(self):
        a = synthetic_wan("x", 20, 35, seed=5)
        b = synthetic_wan("x", 20, 35, seed=6)
        assert sorted(l.endpoints for l in a.links) != sorted(
            l.endpoints for l in b.links
        )

    def test_counts_and_connectivity(self):
        topology = synthetic_wan("w", 30, 60, seed=1)
        assert topology.num_devices == 30
        assert topology.num_links == 60
        assert topology.is_connected()

    def test_latencies_positive(self):
        topology = synthetic_wan("w", 10, 15, seed=2)
        assert all(link.latency > 0 for link in topology.links)

    def test_prefixes_per_device(self):
        topology = synthetic_wan("w", 5, 6, seed=3, prefixes_per_device=2)
        assert all(
            len(topology.external_prefixes(device)) == 2
            for device in topology.devices
        )

    def test_link_count_bounds(self):
        with pytest.raises(ValueError):
            synthetic_wan("w", 5, 3, seed=1)  # below n-1
        with pytest.raises(ValueError):
            synthetic_wan("w", 5, 11, seed=1)  # above n(n-1)/2
