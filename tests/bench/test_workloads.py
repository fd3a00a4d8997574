"""Tests for the benchmark workload builders."""

import pytest

from repro.bench.workloads import (
    build_workload,
    random_fault_scenes,
    random_rule_updates,
)
from repro.topology.datasets import load_dataset


def total_rules(workload):
    return sum(len(fib) for fib in workload.fibs.values())


class TestBuildWorkload:
    def test_inet2_full(self):
        workload = build_workload("INet2")
        assert workload.kind == "WAN"
        assert len(workload.plans) == workload.topology.num_devices
        assert total_rules(workload) > 0

    def test_truncation(self):
        workload = build_workload("B4-13", max_destinations=3)
        assert len(workload.plans) == 3

    def test_dc_uses_tor_pairs(self):
        workload = build_workload("FT-48", scale="tiny", max_destinations=2)
        for _, plan in workload.plans:
            assert all(
                ingress.startswith("edge_") for ingress in plan.invariant.ingress_set
            )

    def test_rule_scale_applied(self):
        base = build_workload("AT1-1", max_destinations=2)
        scaled = build_workload("AT1-2", max_destinations=2)
        assert total_rules(scaled) > 2.5 * total_rules(base)

    def test_plans_are_minimal_mode(self):
        workload = build_workload("INet2", max_destinations=2)
        assert all(plan.mode == "minimal" for _, plan in workload.plans)


class TestRuleUpdates:
    def test_deterministic(self):
        workload = build_workload("INet2", max_destinations=3)
        first = random_rule_updates(workload, 20, seed=5)
        second = random_rule_updates(workload, 20, seed=5)
        assert [u.description for u in first] == [u.description for u in second]

    def test_count(self):
        workload = build_workload("INet2", max_destinations=3)
        updates = random_rule_updates(workload, 15)
        assert len(updates) == 15

    def test_updates_apply(self):
        workload = build_workload("INet2", max_destinations=3)
        updates = random_rule_updates(workload, 10, seed=1)
        before = total_rules(workload)
        for update in updates:
            update.apply()
        # inserts minus removals must net out to a change
        assert total_rules(workload) != before or any(
            "remove" in update.description for update in updates
        )

    def test_error_rate_zero_routes_downhill(self):
        workload = build_workload("INet2", max_destinations=3)
        updates = random_rule_updates(workload, 30, seed=2, error_rate=0.0)
        assert not any("(error)" in update.description for update in updates)


class TestFaultScenes:
    def test_count_and_size(self):
        topology = load_dataset("B4-13")
        scenes = random_fault_scenes(topology, count=50, max_failures=3, seed=3)
        assert len(scenes) == 50
        assert all(1 <= len(scene) <= 3 for scene in scenes)

    def test_connectivity_preserved(self):
        topology = load_dataset("B4-13")
        scenes = random_fault_scenes(topology, count=30, seed=4)
        assert all(topology.is_connected(scene) for scene in scenes)

    def test_deterministic(self):
        topology = load_dataset("B4-13")
        assert random_fault_scenes(topology, 10, seed=9) == random_fault_scenes(
            topology, 10, seed=9
        )
