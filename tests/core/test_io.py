"""Tests for JSON topology/data-plane import/export."""

import json

import pytest

from repro.dataplane.actions import ALL, ANY, Deliver, Drop, Forward
from repro.io import (
    DocumentError,
    fibs_from_list,
    load_fibs,
    load_topology,
    topology_from_dict,
    topology_to_dict,
)
from repro.packetspace.transform import Rewrite
from repro.topology.generators import paper_example


@pytest.fixture()
def topo_doc():
    return {
        "name": "demo",
        "links": [["S", "A", 0.001], ["A", "D", 0.002]],
        "prefixes": {"D": ["10.0.0.0/24"]},
    }


class TestTopologyDocuments:
    def test_from_dict(self, topo_doc):
        topology = topology_from_dict(topo_doc)
        assert topology.num_devices == 3
        assert topology.link("A", "D").latency == pytest.approx(0.002)
        assert topology.external_prefixes("D") == ("10.0.0.0/24",)

    def test_round_trip(self):
        original = paper_example()
        restored = topology_from_dict(topology_to_dict(original))
        assert set(restored.devices) == set(original.devices)
        assert {l.endpoints for l in restored.links} == {
            l.endpoints for l in original.links
        }
        assert restored.external_prefixes("D") == original.external_prefixes("D")

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(topology_to_dict(paper_example())))
        restored = load_topology(str(path))
        assert restored.num_links == 6

    def test_isolated_devices_listed(self):
        topology = topology_from_dict({"devices": ["X"], "links": []})
        assert topology.devices == ("X",)

    def test_malformed_link_rejected(self):
        with pytest.raises(DocumentError):
            topology_from_dict({"links": [["A"]]})

    def test_non_object_rejected(self):
        with pytest.raises(DocumentError):
            topology_from_dict([1, 2, 3])


class TestFibDocuments:
    def test_forward_rule(self, factory, topo_doc):
        topology = topology_from_dict(topo_doc)
        fibs = fibs_from_list(
            [
                {
                    "device": "S",
                    "priority": 100,
                    "match": {"dstIP": "10.0.0.0/24", "dstPort": 80},
                    "action": {"type": "forward", "next_hops": ["A"], "kind": "ANY"},
                }
            ],
            factory,
            topology,
        )
        match = factory.dst_prefix("10.0.0.0/24") & factory.dst_port(80)
        action = fibs["S"].lookup(match)
        assert action == Forward(["A"], kind=ALL)  # single hop canonicalizes

    def test_drop_and_deliver(self, factory, topo_doc):
        topology = topology_from_dict(topo_doc)
        fibs = fibs_from_list(
            [
                {"device": "A", "priority": 1, "match": {},
                 "action": {"type": "drop"}},
                {"device": "D", "priority": 1, "match": {},
                 "action": {"type": "deliver"}},
            ],
            factory,
            topology,
        )
        assert fibs["A"].lookup(factory.all_packets()) == Drop()
        assert fibs["D"].lookup(factory.all_packets()) == Deliver()

    def test_rewrite_action(self, factory):
        fibs = fibs_from_list(
            [
                {
                    "device": "N",
                    "priority": 1,
                    "match": {"dstPort": 80},
                    "action": {
                        "type": "forward",
                        "next_hops": ["M"],
                        "rewrite": {"dstPort": 8080},
                    },
                }
            ],
            factory,
        )
        action = fibs["N"].lookup(factory.dst_port(80))
        assert action.rewrite == Rewrite({"dst_port": 8080})

    def test_unknown_device_rejected(self, factory, topo_doc):
        topology = topology_from_dict(topo_doc)
        with pytest.raises(DocumentError):
            fibs_from_list(
                [{"device": "Z", "action": {"type": "drop"}}],
                factory,
                topology,
            )

    def test_unknown_match_field_rejected(self, factory):
        with pytest.raises(DocumentError):
            fibs_from_list(
                [
                    {
                        "device": "S",
                        "match": {"ttl": 4},
                        "action": {"type": "drop"},
                    }
                ],
                factory,
            )

    def test_forward_without_next_hops_rejected(self, factory):
        with pytest.raises(DocumentError):
            fibs_from_list(
                [{"device": "S", "action": {"type": "forward"}}], factory
            )

    def test_end_to_end_verification(self, factory, tmp_path, topo_doc):
        """Documents -> deployment -> verdict."""
        from repro.core import Tulkun

        rules = [
            {"device": "S", "priority": 1, "match": {"dstIP": "10.0.0.0/24"},
             "action": {"type": "forward", "next_hops": ["A"]}},
            {"device": "A", "priority": 1, "match": {"dstIP": "10.0.0.0/24"},
             "action": {"type": "forward", "next_hops": ["D"]}},
            {"device": "D", "priority": 1, "match": {"dstIP": "10.0.0.0/24"},
             "action": {"type": "deliver"}},
        ]
        topo_path = tmp_path / "t.json"
        fib_path = tmp_path / "f.json"
        topo_path.write_text(json.dumps(topo_doc))
        fib_path.write_text(json.dumps(rules))

        topology = load_topology(str(topo_path))
        tulkun = Tulkun(topology)
        fibs = load_fibs(str(fib_path), tulkun.factory, topology)
        deployment = tulkun.deploy(fibs)
        report = deployment.verify(
            tulkun.parse("(dstIP = 10.0.0.0/24, [S], (exist >= 1, S.*D))")
        )
        assert report.holds
