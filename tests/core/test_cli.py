"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_verify_requires_invariant(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "--dataset", "INet2"])


class TestCommands:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "VIOLATED" in out and "HOLDS" in out

    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "INet2" in out and "NGDC" in out

    def test_verify_dataset_holds(self, capsys):
        code = main(
            [
                "verify",
                "--dataset",
                "INet2",
                "--invariant",
                "(dstIP = 10.0.0.0/24, [INet2-r1], "
                "(exist >= 1, INet2-r1 .* INet2-r0 and loop_free))",
            ]
        )
        assert code == 0
        assert "HOLDS" in capsys.readouterr().out

    def test_verify_dataset_violated_exit_code(self, capsys):
        # an isolation invariant that routed traffic violates
        code = main(
            [
                "verify",
                "--dataset",
                "INet2",
                "--invariant",
                "(dstIP = 10.0.0.0/24, [INet2-r1], "
                "(exist == 0, INet2-r1 .* INet2-r0 and loop_free))",
            ]
        )
        assert code == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_verify_json_documents(self, tmp_path, capsys):
        topo = {
            "name": "t",
            "links": [["S", "A", 0.001], ["A", "D", 0.001]],
            "prefixes": {"D": ["10.0.0.0/24"]},
        }
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
        topo_path.write_text(json.dumps(topo))
        fib_path.write_text(json.dumps(rules))
        code = main(
            [
                "verify",
                "--topology",
                str(topo_path),
                "--fibs",
                str(fib_path),
                "--invariant",
                "(dstIP = 10.0.0.0/24, [S], (exist >= 1, S.*D))",
            ]
        )
        assert code == 0

    def test_verify_topology_without_fibs(self, tmp_path, capsys):
        topo_path = tmp_path / "t.json"
        topo_path.write_text(json.dumps({"links": [["S", "A"]]}))
        code = main(
            ["verify", "--topology", str(topo_path), "--invariant", "x"]
        )
        assert code == 2

    def test_verify_both_sources_rejected(self, tmp_path):
        code = main(
            [
                "verify",
                "--dataset",
                "INet2",
                "--topology",
                "whatever.json",
                "--invariant",
                "x",
            ]
        )
        assert code == 2

    def test_verify_neither_source_rejected(self):
        assert main(["verify", "--invariant", "x"]) == 2


class TestTopCommand:
    def test_bad_endpoint_rejected(self, capsys):
        assert main(["top", "nonsense"]) == 2
        assert "expected HOST:PORT" in capsys.readouterr().err

    def test_unreachable_fleet_exits_degraded(self, capsys):
        code = main(["top", "127.0.0.1:1", "--once", "--json"])
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["state"] == "degraded"
        assert document["devices"][0]["status"] == "unreachable"

    def test_live_agents_scrape_ok_with_their_traffic(self, capsys):
        from repro.core import Tulkun
        from repro.dataplane.routes import RouteConfig, install_routes
        from repro.packetspace.fields import DSTIP_ONLY_LAYOUT
        from repro.packetspace.predicate import PredicateFactory
        from repro.topology.generators import paper_example

        tulkun = Tulkun(paper_example(), PredicateFactory(DSTIP_ONLY_LAYOUT))
        fibs = install_routes(
            tulkun.topology, tulkun.factory, RouteConfig(ecmp="any")
        )
        with tulkun.deploy(
            fibs, backend="runtime", keepalive_interval=0.05, op_timeout=30.0
        ) as deployment:
            deployment.verify(
                tulkun.parse("(dstIP = 10.0.0.0/23, [S], (exist >= 1, S.*D))")
            )
            endpoints = deployment.http_endpoints
            code = main(
                [
                    "top",
                    *(f"{host}:{port}" for host, port in endpoints.values()),
                    "--once",
                    "--json",
                ]
            )
            sent = {
                device: metrics.messages_out.value
                for device, metrics in deployment.metrics.devices.items()
            }
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["state"] == "ok"
        assert {
            entry["device"]: entry["messages_out"]
            for entry in document["devices"]
        } == sent
        assert sum(sent.values()) > 0
        for entry in document["devices"]:
            assert sorted(entry) == sorted(
                [
                    "device", "target", "status", "stalled", "http_status",
                    "latency_seconds", "staleness_seconds", "messages_in",
                    "messages_out", "bytes_in", "bytes_out", "inbox_depth",
                    "pending_out", "error",
                ]
            )


class TestTestbedCommand:
    def test_unknown_dataset_rejected(self, capsys):
        assert main(["testbed", "--dataset", "nope"]) == 2
        assert "unknown dataset" in capsys.readouterr().err

    def test_records_the_plan_each_invariant_installed(self, capsys):
        # Ten invariants: string-max of "plan-N" ids would name plan-9
        # twice and never count plan-10.
        code = main(
            [
                "testbed",
                "--dataset",
                "B4-13",
                "--scale",
                "tiny",
                "--destinations",
                "10",
                "--keepalive",
                "0.05",
                "--hold-down",
                "0.05",
                "--no-http",
                "--json",
            ]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        plans = [entry["plan"] for entry in document["invariants"]]
        assert plans == [f"plan-{index}" for index in range(1, 11)]
        recovered = document["events"][1]
        assert recovered["event"] == "recover_link"
        assert recovered["invariants_holding"] == len(plans)
