"""Tests for one-big-switch partitioned verification (§7)."""

import pytest

from repro.dataplane.errors import inject_blackhole
from repro.dataplane.lec import build_lec_table
from repro.dataplane.routes import RouteConfig, install_routes
from repro.planner.partition import (
    OneBigSwitchAbstraction,
    PartitionError,
    verify_partitioned,
)
from repro.topology.generators import fattree, line, paper_example


@pytest.fixture()
def example_setting(dst_factory):
    topology = paper_example()
    fibs = install_routes(topology, dst_factory, RouteConfig(ecmp="any"))
    tables = {
        device: build_lec_table(fib, dst_factory)
        for device, fib in fibs.items()
    }
    groups = {"S": "west", "A": "west", "B": "east", "W": "east", "D": "east"}
    return topology, fibs, tables, OneBigSwitchAbstraction(topology, groups)


class TestAbstraction:
    def test_requires_total_partition(self):
        topology = paper_example()
        with pytest.raises(PartitionError):
            OneBigSwitchAbstraction(topology, {"S": "west"})

    def test_abstract_topology(self, example_setting):
        _, _, _, abstraction = example_setting
        abstract = abstraction.abstract_topology()
        assert set(abstract.devices) == {"west", "east"}
        assert abstract.has_link("west", "east")
        assert "10.0.0.0/24" in abstract.external_prefixes("east")

    def test_members_and_borders(self, example_setting):
        _, _, _, abstraction = example_setting
        assert abstraction.members("west") == ("A", "S")
        # With two groups, a group's border is its entry from the other.
        assert abstraction.entry_devices("west", "east") == ("A",)
        assert set(abstraction.entry_devices("east", "west")) == {"B", "W"}

    def test_entry_devices(self, example_setting):
        _, _, _, abstraction = example_setting
        assert set(abstraction.entry_devices("east", "west")) == {"B", "W"}

    def test_abstract_actions(self, example_setting, dst_factory):
        _, _, tables, abstraction = example_setting
        packets = dst_factory.dst_prefix("10.0.0.0/24")
        exits = abstraction.abstract_actions(tables, packets)
        assert exits["west"] == {"east"}

    def test_subtopology(self, example_setting):
        _, _, _, abstraction = example_setting
        sub = abstraction.subtopology("east")
        assert set(sub.devices) == {"B", "W", "D"}
        assert sub.has_link("B", "D") and not sub.has_link("A", "B")


class TestVerifyPartitioned:
    def test_reachability_holds(self, example_setting, dst_factory):
        _, _, tables, abstraction = example_setting
        packets = dst_factory.dst_prefix("10.0.0.0/24")
        report = verify_partitioned(abstraction, tables, packets, "S", "D")
        assert report.holds
        assert report.abstract_path_groups == ("west", "east")

    def test_blackhole_in_transit_group_detected(
        self, example_setting, dst_factory
    ):
        topology, fibs, _, abstraction = example_setting
        packets = dst_factory.dst_prefix("10.0.0.0/24")
        inject_blackhole(fibs, "A", packets, label="10.0.0.0/24")
        tables = {
            device: build_lec_table(fib, dst_factory)
            for device, fib in fibs.items()
        }
        report = verify_partitioned(abstraction, tables, packets, "S", "D")
        assert not report.holds
        assert report.failures

    def test_blackhole_in_destination_group_detected(
        self, example_setting, dst_factory
    ):
        topology, fibs, _, abstraction = example_setting
        packets = dst_factory.dst_prefix("10.0.0.0/24")
        for device in ("B", "W"):
            inject_blackhole(fibs, device, packets, label="10.0.0.0/24")
        tables = {
            device: build_lec_table(fib, dst_factory)
            for device, fib in fibs.items()
        }
        report = verify_partitioned(abstraction, tables, packets, "S", "D")
        assert not report.holds

    def test_same_group_source_destination(self, example_setting, dst_factory):
        _, _, tables, abstraction = example_setting
        packets = dst_factory.dst_prefix("10.0.0.0/24")
        report = verify_partitioned(abstraction, tables, packets, "B", "D")
        assert report.holds
        assert report.abstract_path_groups == ("east",)

    def test_fattree_pod_partition(self, dst_factory):
        """Pods (plus the core layer) as one-big-switches."""
        topology = fattree(4)
        fibs = install_routes(topology, dst_factory, RouteConfig(ecmp="any"))
        tables = {
            device: build_lec_table(fib, dst_factory)
            for device, fib in fibs.items()
        }
        groups = {}
        for device in topology.devices:
            if device.startswith("core_"):
                groups[device] = "core"
            else:
                groups[device] = f"pod{device.split('_')[1]}"
        abstraction = OneBigSwitchAbstraction(topology, groups)
        prefix = topology.external_prefixes("edge_2_0")[0]
        packets = dst_factory.dst_prefix(prefix)
        report = verify_partitioned(
            abstraction, tables, packets, "edge_0_0", "edge_2_0"
        )
        assert report.holds
        assert report.abstract_path_groups == ("pod0", "core", "pod2")

    def test_agrees_with_flat_verification(self, dst_factory):
        """Partitioned and flat verification agree on a line network."""
        topology = line(6)
        topology.attach_prefix("d5", "10.0.0.0/24")
        fibs = install_routes(topology, dst_factory)
        packets = dst_factory.dst_prefix("10.0.0.0/24")
        groups = {f"d{i}": f"g{i // 2}" for i in range(6)}
        abstraction = OneBigSwitchAbstraction(topology, groups)

        def check():
            tables = {
                device: build_lec_table(fib, dst_factory)
                for device, fib in fibs.items()
            }
            return verify_partitioned(
                abstraction, tables, packets, "d0", "d5"
            ).holds

        assert check() is True
        inject_blackhole(fibs, "d3", packets, label="10.0.0.0/24")
        assert check() is False
