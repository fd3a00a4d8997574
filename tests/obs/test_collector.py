"""The fleet collector: parsing, merging, stall detection, live fleets."""

import asyncio
import json

import pytest

from repro.bench.workloads import build_workload
from repro.obs.collector import Collector, parse_prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.serve import DeviceStatus, TelemetryServer, http_get
from repro.runtime.cluster import RuntimeCluster


class TestParsePrometheusText:
    def test_plain_and_labeled_samples(self):
        parsed = parse_prometheus_text(
            "# HELP up liveness\n"
            "# TYPE up gauge\n"
            "up 1\n"
            'frames{device="r0",kind="counting"} 42\n'
        )
        assert parsed["up"] == {(): 1.0}
        assert parsed["frames"] == {
            (("device", "r0"), ("kind", "counting")): 42.0
        }

    def test_inf_values_parse(self):
        parsed = parse_prometheus_text('h_bucket{le="+Inf"} 3\n')
        assert parsed["h_bucket"][(("le", "+Inf"),)] == 3.0

    def test_garbage_raises_with_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_prometheus_text("up 1\nnot prometheus at all\n")

    def test_duplicate_series_raises(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_prometheus_text("up 1\nup 2\n")

    def test_missing_value_raises(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_prometheus_text('frames{device="r0"}\n')


def _by_device(snapshot):
    return {sample.device: sample for sample in snapshot.samples}


class _FakeAgent:
    """A TelemetryServer serving a scriptable status record."""

    def __init__(self, device="d0"):
        self.record = DeviceStatus(
            status="ok",
            device=device,
            phase="idle",
            uptime_seconds=1.0,
            dvm_port=0,
            http_port=0,
            inbox_depth=0,
            sessions={},
            peers_down=[],
            decode_errors=0,
            messages_in=0,
            messages_out=0,
            bytes_in=0,
            bytes_out=0,
            reconnects=0,
            peer_down_events=0,
            handshake_failures=0,
        )
        self.server = TelemetryServer(
            MetricsRegistry, lambda: self.record.to_dict()
        )

    def advance(self, frames=1):
        self.record.messages_out += frames

    @property
    def target(self):
        return (self.server.host, self.server.port)


class TestStallDetection:
    def test_frozen_counters_while_converging_fire_one_alert(self, run):
        async def scenario():
            agent = _FakeAgent()
            await agent.server.start()
            try:
                collector = Collector([agent.target], stall_scrapes=2)
                agent.record.phase = "converging"
                agent.advance(5)
                first = await collector.scrape_once()
                assert first.state == "ok" and not first.alerts
                # Two frozen scrapes mid-convergence => stalled.
                second = await collector.scrape_once()
                assert not second.samples[0].stalled
                third = await collector.scrape_once()
                assert third.samples[0].stalled
                assert third.state == "degraded"
                assert [a["kind"] for a in third.alerts] == ["stalled"]
                # The episode alerts once, not once per scrape.
                fourth = await collector.scrape_once()
                assert fourth.samples[0].stalled and not fourth.alerts
                # Progress (or the op closing) clears the stall.
                agent.advance()
                fifth = await collector.scrape_once()
                assert not fifth.samples[0].stalled
                assert fifth.state == "ok"
            finally:
                await agent.server.stop()

        run(scenario())

    def test_idle_fleet_never_stalls(self, run):
        async def scenario():
            agent = _FakeAgent()
            await agent.server.start()
            try:
                collector = Collector([agent.target], stall_scrapes=1)
                for _ in range(3):
                    snapshot = await collector.scrape_once()
                    assert snapshot.state == "ok"
                    assert not snapshot.samples[0].stalled
            finally:
                await agent.server.stop()

        run(scenario())

    def test_degraded_healthz_flips_fleet_state(self, run):
        async def scenario():
            agent = _FakeAgent()
            await agent.server.start()
            try:
                collector = Collector([agent.target])
                assert (await collector.scrape_once()).state == "ok"
                agent.record.status = "degraded"
                snapshot = await collector.scrape_once()
                assert snapshot.state == "degraded"
                assert snapshot.samples[0].http_status == 503
                assert [a["kind"] for a in snapshot.alerts] == ["degraded"]
            finally:
                await agent.server.stop()

        run(scenario())

    def test_a_scrape_asks_each_agent_once(self, run):
        async def scenario():
            agents = [_FakeAgent(f"d{index}") for index in range(3)]
            for agent in agents:
                await agent.server.start()
            try:
                collector = Collector([agent.target for agent in agents])
                for _ in range(2):
                    before = [agent.server.requests_served for agent in agents]
                    snapshot = await collector.scrape_once()
                    after = [agent.server.requests_served for agent in agents]
                    assert [b - a for a, b in zip(before, after)] == [1, 1, 1]
                    assert snapshot.state == "ok"
                assert (await Collector([]).scrape_once()).state == "empty"
            finally:
                for agent in agents:
                    await agent.server.stop()

        run(scenario())


class TestLiveFleet:
    """The acceptance scenario: a real INet2 testbed fleet."""

    def test_scrape_aggregate_and_killed_agent_degrades(
        self, run, fast_options
    ):
        workload = build_workload("INet2", max_destinations=2)

        async def scenario():
            cluster = RuntimeCluster(
                workload.topology,
                workload.fibs,
                workload.factory,
                **fast_options,
            )
            await cluster.start()
            try:
                await cluster.install_plans(dict(workload.plans))
                endpoints = cluster.http_endpoints
                assert set(endpoints) == set(workload.topology.devices)
                collector = Collector(list(endpoints.values()))
                snapshot = await collector.scrape_once()
                assert snapshot.state == "ok"
                by_device = _by_device(snapshot)
                assert set(by_device) == set(workload.topology.devices)
                # Every device's counting traffic, read from its
                # /healthz record alone, matches the cluster's own truth.
                for device, host in cluster.hosts.items():
                    record = by_device[device].record
                    assert record.messages_out == host.metrics.messages_out.value
                    assert record.bytes_out == host.metrics.bytes_out.value

                # Kill one agent: the very next scrape must flip the
                # fleet to degraded and fire an alert.
                victim = sorted(cluster.hosts)[0]
                await cluster.hosts[victim].stop()
                snapshot = await collector.scrape_once()
                assert snapshot.state == "degraded"
                # The victim alerts unreachable; its peers (who just
                # lost a session) legitimately alert degraded too.
                assert ("unreachable", victim) in [
                    (a["kind"], a["device"]) for a in snapshot.alerts
                ]
                down = _by_device(snapshot)[victim]
                assert down.status == "unreachable" and down.record is None
                assert down.error and down.http_status == 0
            finally:
                await cluster.stop()

        run(scenario())

    def test_concurrent_scrape_while_writing_is_consistent(
        self, run, fast_options
    ):
        """Scrapes during convergence see torn-read-free snapshots.

        The render path never awaits and runs on the same loop as the
        metric writers, so within any single /metrics response every
        histogram's ``_count`` equals its ``+Inf`` bucket and bucket
        counts are monotone -- even while a burst is mid-flight.
        """
        workload = build_workload("INet2", max_destinations=2)

        async def scenario():
            cluster = RuntimeCluster(
                workload.topology,
                workload.fibs,
                workload.factory,
                **fast_options,
            )
            await cluster.start()
            try:
                endpoints = list(cluster.http_endpoints.values())
                collector = Collector(endpoints)
                bodies = []

                async def scrape_hard():
                    from repro.obs.serve import http_get

                    while True:
                        for host, port in endpoints[:3]:
                            _, body = await http_get(host, port, "/metrics")
                            bodies.append(body.decode())
                        await asyncio.sleep(0)

                scraper = asyncio.get_running_loop().create_task(
                    scrape_hard()
                )
                try:
                    await cluster.install_plans(dict(workload.plans))
                    # Keep the metric writers busy until the scraper has
                    # read enough bodies, however fast one operation
                    # converges (a settled wait may not yield at all).
                    while len(bodies) < 4:
                        for device in sorted(cluster.hosts):
                            await cluster.fib_update(device, lambda: None)
                        await asyncio.sleep(0)
                    await collector.scrape_once()
                finally:
                    scraper.cancel()
                    try:
                        await scraper
                    except asyncio.CancelledError:
                        pass
                assert len(bodies) > 3, "scraper barely ran"
                for body in bodies:
                    parsed = parse_prometheus_text(body)
                    counts = parsed["verifier_processing_seconds_count"]
                    buckets = parsed["verifier_processing_seconds_bucket"]
                    for labels, count in counts.items():
                        inf_key = tuple(
                            sorted(dict(labels, le="+Inf").items())
                        )
                        assert buckets[inf_key] == count
            finally:
                await cluster.stop()

        run(scenario())


def _without_clock_readings(document):
    """A /healthz document minus the fields that are clock readings."""
    document.pop("uptime_seconds")
    for entry in document["sessions"].values():
        entry.pop("last_rx_age_seconds", None)
    return document


class TestDecodeErrors:
    def test_healthz_is_a_pure_read_and_one_scrape_flags_the_rise(
        self, run, fast_options
    ):
        """A probe must not consume the signal: two GETs after one
        decode error read the same document, and the collector flags the
        rise on exactly one of its own scrapes."""
        workload = build_workload("INet2", max_destinations=1)
        # Keepalives slower than the test: no frame is queued mid-read.
        options = dict(fast_options, keepalive_interval=10.0)

        async def scenario():
            cluster = RuntimeCluster(
                workload.topology,
                workload.fibs,
                workload.factory,
                **options,
            )
            await cluster.start()
            try:
                collector = Collector(list(cluster.http_endpoints.values()))
                before = await collector.scrape_once()
                victim = sorted(cluster.hosts)[0]
                host = cluster.hosts[victim]
                # Garbage where a peer's OPEN belongs: one decode error.
                _, writer = await asyncio.open_connection(
                    "127.0.0.1", host.port
                )
                writer.write(b"\xde\xad\xbe\xef" * 4)
                await writer.drain()
                for _ in range(500):
                    if host.metrics.decode_errors.value:
                        break
                    await asyncio.sleep(0.01)
                writer.close()
                assert host.metrics.decode_errors.value == 1
                documents = []
                for _ in range(2):
                    status, body = await http_get(
                        *cluster.http_endpoints[victim], "/healthz"
                    )
                    assert status == 200
                    documents.append(
                        _without_clock_readings(json.loads(body))
                    )
                flagged = await collector.scrape_once()
                after = await collector.scrape_once()
            finally:
                await cluster.stop()
            return victim, before, documents, flagged, after

        victim, before, documents, flagged, after = run(scenario())
        assert before.state == "ok"
        assert documents[0] == documents[1]
        assert documents[0]["decode_errors"] == 1
        assert documents[0]["status"] == "ok"
        assert flagged.state == "degraded"
        assert _by_device(flagged)[victim].status == "degraded"
        assert [(a["kind"], a["device"]) for a in flagged.alerts] == [
            ("degraded", victim)
        ]
        assert after.state == "ok" and not after.alerts


class TestLateEndpoints:
    """A target that has never answered reads unreachable at once: the
    collector grants no launch grace."""

    def test_grace_expires_into_unreachable(self, run):
        async def scenario():
            agent = _FakeAgent()
            await agent.server.start()
            target = agent.target
            await agent.server.stop()
            collector = Collector([target], timeout=0.2)
            return await collector.scrape_once()

        snapshot = run(scenario())
        assert snapshot.samples[0].status == "unreachable"
        assert snapshot.state == "degraded"
