"""The ``backend="runtime"`` deployment facade."""

import random
import socket

import pytest

from repro.core import Tulkun
from repro.core.errors import TulkunError
from repro.dataplane.actions import Forward
from repro.dataplane.routes import (
    PRIORITY_ERROR,
    RouteConfig,
    install_routes,
)
from repro.packetspace.fields import DSTIP_ONLY_LAYOUT
from repro.packetspace.predicate import PredicateFactory
from repro.topology.generators import paper_example


def _free_port_range(width):
    """A base port whose ``width`` consecutive loopback ports bind now.

    Probed below Linux's ephemeral range (32768+): a fixed port inside
    it can be taken by any outgoing connection of the suite's other
    sockets, which is how this test used to flake with EADDRINUSE.
    """
    for _ in range(64):
        base = random.SystemRandom().randrange(10240, 32768 - width)
        held = []
        try:
            for port in range(base, base + width):
                held.append(socket.socket(socket.AF_INET, socket.SOCK_STREAM))
                held[-1].bind(("127.0.0.1", port))
            return base
        except OSError:
            continue
        finally:
            for sock in held:
                sock.close()
    raise OSError(f"no free range of {width} loopback ports")


FAST = dict(
    keepalive_interval=0.05,
    op_timeout=30.0,
)

WAYPOINT = "(dstIP = 10.0.0.0/23, [S], (exist >= 1, S.*W.*D and loop_free))"


@pytest.fixture()
def tulkun_and_fibs():
    tulkun = Tulkun(paper_example(), PredicateFactory(DSTIP_ONLY_LAYOUT))
    fibs = install_routes(
        tulkun.topology, tulkun.factory, RouteConfig(ecmp="any")
    )
    return tulkun, fibs


class TestBackendSelection:
    def test_unknown_backend_rejected(self, tulkun_and_fibs):
        tulkun, fibs = tulkun_and_fibs
        with pytest.raises(TulkunError, match="unknown backend"):
            tulkun.deploy(fibs, backend="quantum")

    def test_runtime_options_need_runtime_backend(self, tulkun_and_fibs):
        # Options go to the backend built; the simulator has no sessions.
        tulkun, fibs = tulkun_and_fibs
        with pytest.raises(TypeError, match="keepalive_interval"):
            tulkun.deploy(fibs, keepalive_interval=0.1)

    def test_sim_backend_is_default_and_context_managed(
        self, tulkun_and_fibs
    ):
        tulkun, fibs = tulkun_and_fibs
        with tulkun.deploy(fibs) as deployment:
            invariant = tulkun.parse(WAYPOINT, name="wp")
            assert deployment.verify(invariant).holds is False


class TestRuntimeFacade:
    def test_figure2_walkthrough_over_tcp(self, tulkun_and_fibs):
        """The demo flow -- violation, fix, re-verify -- on real sockets."""
        tulkun, fibs = tulkun_and_fibs
        with tulkun.deploy(fibs, backend="runtime", **FAST) as deployment:
            invariant = tulkun.parse(WAYPOINT, name="wp")
            report = deployment.verify(invariant)
            assert report.holds is False
            assert report.message_count > 0
            assert report.message_bytes > report.message_count * 8
            assert report.verification_seconds >= 0.0

            plan_id = next(iter(deployment.plans))
            packets = tulkun.factory.dst_prefix("10.0.0.0/23")
            seconds = deployment.update_rule(
                "A",
                lambda: fibs["A"].insert(
                    PRIORITY_ERROR, packets, Forward(["W"])
                ),
            )
            assert seconds >= 0.0
            assert deployment.holds(plan_id)

            final = deployment.reports()[0]
            assert final.holds
            assert final.invariant.name == "wp"

    def test_fault_injection_and_metrics(self, tulkun_and_fibs):
        tulkun, fibs = tulkun_and_fibs
        with tulkun.deploy(fibs, backend="runtime", **FAST) as deployment:
            invariant = tulkun.parse(
                "(dstIP = 10.0.0.0/23, [S], (exist >= 1, S.*D))",
                name="reach",
            )
            assert deployment.verify(invariant).holds
            plan_id = next(iter(deployment.plans))

            deployment.fail_link("W", "D")
            deployment.recover_link("W", "D")
            assert deployment.holds(plan_id)

            deployment.drop_connection("A", "B", hold_down=0.05)
            assert deployment.holds(plan_id)

            records = deployment.statuses()
            assert len(records) == tulkun.topology.num_devices
            assert deployment.metrics.total_messages > 0
            assert deployment.metrics.total_reconnects >= 1

    def test_close_is_idempotent_and_rejects_further_use(
        self, tulkun_and_fibs
    ):
        tulkun, fibs = tulkun_and_fibs
        deployment = tulkun.deploy(fibs, backend="runtime", **FAST)
        deployment.close()
        deployment.close()
        with pytest.raises(TulkunError, match="closed"):
            deployment.holds("plan-1")


class TestTelemetryEndpoints:
    def test_every_agent_serves_metrics_and_healthz(self, tulkun_and_fibs):
        import asyncio
        import json

        from repro.obs.serve import http_get

        tulkun, fibs = tulkun_and_fibs
        with tulkun.deploy(fibs, backend="runtime", **FAST) as deployment:
            endpoints = deployment.http_endpoints
            assert set(endpoints) == set(tulkun.topology.devices)

            async def probe():
                for device, (host, port) in endpoints.items():
                    status, body = await http_get(host, port, "/metrics")
                    assert status == 200 and b"dvm_" in body
                    status, body = await http_get(host, port, "/healthz")
                    assert status == 200
                    assert json.loads(body)["device"] == device

            asyncio.run(asyncio.wait_for(probe(), 30.0))

    def test_base_port_allocation_follows_sorted_devices(
        self, tulkun_and_fibs
    ):
        tulkun, fibs = tulkun_and_fibs
        base = _free_port_range(tulkun.topology.num_devices)
        with tulkun.deploy(
            fibs, backend="runtime", http_base_port=base, **FAST
        ) as deployment:
            endpoints = deployment.http_endpoints
            for index, device in enumerate(sorted(tulkun.topology.devices)):
                assert endpoints[device] == ("127.0.0.1", base + index)

    def test_http_disabled_leaves_no_endpoints(self, tulkun_and_fibs):
        tulkun, fibs = tulkun_and_fibs
        with tulkun.deploy(
            fibs, backend="runtime", http_enabled=False, **FAST
        ) as deployment:
            assert deployment.http_endpoints == {}
            assert all(
                host.telemetry is None
                for host in deployment.cluster.hosts.values()
            )
