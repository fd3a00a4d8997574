"""FleetSpec serialization, topology names, workload determinism."""

import pytest

from repro.fleet.spec import (
    FleetSpec,
    build_fleet_workload,
    fleet_topology,
    fleet_update_stream,
)


class TestSpecSerialization:
    def test_json_round_trip(self):
        spec = FleetSpec(
            topology="ft6", workers=3, base_port=31000, destinations=5
        )
        assert FleetSpec.from_json(spec.to_json()) == spec

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown fleet spec"):
            FleetSpec.from_json('{"topology": "ft4", "bogus": 1}')

    def test_non_object_rejected(self):
        with pytest.raises(ValueError):
            FleetSpec.from_json("[1, 2]")


class TestFleetTopology:
    def test_fattree_names(self):
        assert fleet_topology("ft4").num_devices == 20
        assert fleet_topology("ft8").num_devices == 80

    def test_fattree_with_hosts(self):
        topology = fleet_topology("ft4h2")
        assert topology.num_devices == 20 + 8 * 2
        owners = topology.devices_with_prefixes()
        assert all(name.startswith("host_") for name in owners)

    def test_dataset_names_case_insensitive(self):
        assert fleet_topology("inet2").num_devices > 0

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown fleet topology"):
            fleet_topology("ft")


class TestFleetWorkload:
    def test_deterministic_rebuild(self):
        # Every worker rebuilds the workload independently; plans,
        # routing and ingress sampling must come out identical.
        spec = FleetSpec(topology="ft4", destinations=3, ingresses=4)
        first = build_fleet_workload(spec)
        second = build_fleet_workload(spec)
        assert [p[0] for p in first.plans] == [p[0] for p in second.plans]
        assert {
            device: len(fib) for device, fib in first.fibs.items()
        } == {device: len(fib) for device, fib in second.fibs.items()}

    def test_destination_pruning(self):
        spec = FleetSpec(topology="ft4", destinations=2)
        workload = build_fleet_workload(spec)
        assert len(workload.topology.devices_with_prefixes()) == 2
        assert len(workload.plans) == 2
        # The graph itself is untouched by pruning.
        assert workload.topology.num_devices == 20

    def test_ingress_sampling_bounds_the_invariant(self):
        spec = FleetSpec(topology="ft8", destinations=1, ingresses=4)
        workload = build_fleet_workload(spec)
        (_, plan), = workload.plans
        # 4 of the 31 other ToR owners are sampled as ingresses (the
        # plan still spans the transit devices between them).
        assert len(plan.invariant.ingress_set) == 4
        assert len(plan.devices()) < workload.topology.num_devices

    def test_update_stream_deterministic(self):
        spec = FleetSpec(topology="ft4", destinations=2)
        workload = build_fleet_workload(spec)
        first = fleet_update_stream(spec, workload, 6)
        second = fleet_update_stream(
            spec, build_fleet_workload(spec), 6
        )
        assert [u.device for u in first] == [u.device for u in second]
        assert [u.description for u in first] == [
            u.description for u in second
        ]

    def test_bad_fattree_arity_rejected(self):
        with pytest.raises(ValueError, match="arity"):
            build_fleet_workload(FleetSpec(topology="ft0"))
