"""The deterministic sharding plan: assignment, ports, stability."""

import pytest

from repro.fleet.sharding import CONTROL_SPAN, make_shard_plan
from repro.topology.generators import fattree, line


class TestAssignment:
    def test_every_device_assigned_exactly_once(self):
        topology = fattree(4)
        plan = make_shard_plan(topology, 3)
        assigned = [d for shard in plan.shards for d in shard]
        assert sorted(assigned) == sorted(topology.devices)
        assert set(plan.worker_of) == set(topology.devices)
        for worker, shard in enumerate(plan.shards):
            assert all(plan.worker_of[d] == worker for d in shard)

    def test_balanced_shard_sizes(self):
        plan = make_shard_plan(fattree(4), 3)
        sizes = [len(shard) for shard in plan.shards]
        assert sum(sizes) == 20
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic_across_runs(self):
        topology = fattree(6)
        assert make_shard_plan(topology, 4) == make_shard_plan(topology, 4)

    def test_neighbors_prefer_colocation(self):
        # BFS chunking keeps most fattree links inside one worker --
        # far above the ~1/workers fraction a random split would give.
        topology = fattree(4)
        plan = make_shard_plan(topology, 2)
        assert plan.colocated_link_fraction(topology) >= 0.6


class TestPortPlan:
    def test_device_ports_independent_of_worker_count(self):
        # Re-sharding over more workers must never move a device's
        # wire address: ports come from the global sorted index.
        topology = fattree(4)
        plans = [make_shard_plan(topology, n) for n in (1, 2, 4, 5)]
        for plan in plans[1:]:
            assert plan.dvm_ports == plans[0].dvm_ports
            assert plan.http_ports == plans[0].http_ports

    def test_port_ranges_are_disjoint(self):
        topology = fattree(4)
        plan = make_shard_plan(topology, 4, base_port=30000)
        control = {plan.control_port(w) for w in range(4)}
        dvm = set(plan.dvm_ports.values())
        http = set(plan.http_ports.values())
        assert not control & dvm
        assert not control & http
        assert not dvm & http
        assert len(dvm) == topology.num_devices
        assert len(http) == topology.num_devices

    def test_http_base_port_matches_cluster_allocation(self):
        # RuntimeCluster allocates http_base_port + sorted index; the
        # plan's http_base_port must land every device on its planned
        # telemetry port.
        topology = fattree(4)
        plan = make_shard_plan(topology, 2, base_port=30000)
        for index, device in enumerate(sorted(topology.devices)):
            assert plan.http_ports[device] == plan.http_base_port + index

    def test_control_port_bounds(self):
        plan = make_shard_plan(line(4), 2, base_port=30000)
        assert plan.control_port(0) == 30000
        assert plan.control_port(1) == 30001
        with pytest.raises(IndexError):
            plan.control_port(2)


class TestValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            make_shard_plan(line(4), 0)

    def test_more_workers_than_devices_rejected(self):
        with pytest.raises(ValueError):
            make_shard_plan(line(4), 5)

    def test_fleet_width_bounded_by_control_span(self):
        with pytest.raises(ValueError):
            make_shard_plan(line(CONTROL_SPAN + 2), CONTROL_SPAN + 1)

    def test_privileged_base_port_rejected(self):
        with pytest.raises(ValueError):
            make_shard_plan(line(4), 2, base_port=80)
