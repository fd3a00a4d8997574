"""The fleet collector: parsing, merging, stall detection, live fleets."""

import asyncio

import pytest

from repro.bench.workloads import build_workload
from repro.obs.collector import Collector, parse_prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import install_dvm_schema
from repro.obs.serve import TelemetryServer
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


def _device_registry(device="d0", messages=0):
    """A one-device DVM registry with ``messages`` counting frames."""
    registry = MetricsRegistry()
    families = install_dvm_schema(registry)
    counter = families["dvm_messages_total"].labels(
        device=device, direction="out", kind="counting"
    )
    if messages:
        counter.inc(messages)
    return registry, families


class _FakeAgent:
    """A TelemetryServer with scriptable health + advanceable counters."""

    def __init__(self, device="d0"):
        self.device = device
        self.registry, self.families = _device_registry(device)
        self.phase = "idle"
        self.status = "ok"
        self.server = TelemetryServer(lambda: self.registry, self.health)

    def health(self):
        return {
            "status": self.status,
            "device": self.device,
            "phase": self.phase,
            "uptime_seconds": 1.0,
            "inbox_depth": 0,
        }

    def advance(self, frames=1):
        self.families["dvm_messages_total"].labels(
            device=self.device, direction="out", kind="counting"
        ).inc(frames)

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
                agent.phase = "converging"
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
                agent.status = "degraded"
                snapshot = await collector.scrape_once()
                assert snapshot.state == "degraded"
                assert snapshot.samples[0].http_status == 503
                assert [a["kind"] for a in snapshot.alerts] == ["degraded"]
            finally:
                await agent.server.stop()

        run(scenario())

    def test_background_loop_accumulates_cycles(self, run):
        async def scenario():
            agent = _FakeAgent()
            await agent.server.start()
            try:
                collector = Collector([agent.target])
                collector.start(interval=0.02)
                for _ in range(100):
                    if collector.cycles >= 3:
                        break
                    await asyncio.sleep(0.02)
                await collector.stop()
                assert collector.cycles >= 3
                assert collector.state == "ok"
            finally:
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
                by_device = snapshot.by_device()
                assert set(by_device) == set(workload.topology.devices)
                # Every device's counting traffic made it into the
                # fleet registry, and matches the cluster's own truth.
                for device, host in cluster.hosts.items():
                    sample = by_device[device]
                    assert sample.messages_out == host.metrics.messages_out.value
                    assert sample.bytes_out == host.metrics.bytes_out.value
                fleet = collector.registry.as_dict()
                assert fleet["fleet_degraded"]["samples"][0]["value"] == 0.0

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
                down = snapshot.by_device()[victim]
                assert down.status == "unreachable" and not down.ok
                fleet = collector.registry.as_dict()
                assert fleet["fleet_degraded"]["samples"][0]["value"] == 1.0
                up_samples = {
                    tuple(s["labels"].items()): s["value"]
                    for s in fleet["fleet_device_up"]["samples"]
                }
                assert up_samples[(("device", victim),)] == 0.0
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
                        await cluster.burst_fib_event()
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


class TestLateEndpoints:
    def test_targets_registered_after_construction_are_scraped(self, run):
        async def scenario():
            agent = _FakeAgent()
            await agent.server.start()
            try:
                collector = Collector([], launch_grace_seconds=30.0)
                assert (await collector.scrape_once()).state == "empty"
                collector.add_targets([agent.target])
                collector.add_targets([agent.target])  # idempotent
                snapshot = await collector.scrape_once()
            finally:
                await agent.server.stop()
            return snapshot, collector

        snapshot, collector = run(scenario())
        assert len(collector.targets) == 1
        assert snapshot.state == "ok"
        assert snapshot.samples[0].device == "d0"

    def test_unanswered_target_is_starting_within_launch_grace(self, run):
        async def scenario():
            agent = _FakeAgent()
            await agent.server.start()
            target = agent.target
            await agent.server.stop()  # nothing listens there yet
            collector = Collector(
                [target], timeout=0.2, launch_grace_seconds=60.0
            )
            return await collector.scrape_once()

        snapshot = run(scenario())
        # A worker that has never answered is launch noise, not an
        # incident: reported "starting", fleet not degraded.
        assert snapshot.samples[0].status == "starting"
        assert snapshot.state == "starting"

    def test_grace_expires_into_unreachable(self, run):
        async def scenario():
            agent = _FakeAgent()
            await agent.server.start()
            target = agent.target
            await agent.server.stop()
            collector = Collector(
                [target], timeout=0.2, launch_grace_seconds=0.0
            )
            return await collector.scrape_once()

        snapshot = run(scenario())
        assert snapshot.samples[0].status == "unreachable"
        assert snapshot.state == "degraded"
