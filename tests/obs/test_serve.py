"""The telemetry HTTP server: endpoints, exposition edge cases, client."""

import json
import threading

import pytest

from repro.obs.collector import parse_prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.serve import (
    CONTENT_TYPE_TEXT,
    TelemetryServer,
    http_get,
    serve_registry,
)


async def _served(registry, health_provider=None):
    server = TelemetryServer(lambda: registry, health_provider)
    await server.start()
    return server


async def _get(server, path):
    return await http_get(server.host, server.port, path)


class TestEndpoints:
    def test_metrics_healthz_and_vars(self, run):
        async def scenario():
            registry = MetricsRegistry()
            registry.counter("dvm_frames", labelnames=("device",)).labels(
                device="r0"
            ).inc(2)
            server = await _served(registry)
            try:
                status, body = await _get(server, "/metrics")
                assert status == 200
                assert 'dvm_frames{device="r0"} 2' in body.decode()
                status, body = await _get(server, "/healthz")
                assert status == 200
                health = json.loads(body)
                assert health["status"] == "ok"
                assert health["uptime_seconds"] >= 0
                status, body = await _get(server, "/vars")
                assert status == 200
                assert json.loads(body)["dvm_frames"]["kind"] == "counter"
            finally:
                await server.stop()

        run(scenario())

    def test_unknown_path_404_and_non_get_405(self, run):
        async def scenario():
            server = await _served(MetricsRegistry())
            try:
                status, _ = await _get(server, "/nope")
                assert status == 404
                # A hand-rolled POST through the same client path.
                import asyncio

                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(
                    b"POST /metrics HTTP/1.1\r\n"
                    b"Connection: close\r\n\r\n"
                )
                await writer.drain()
                raw = await reader.read(-1)
                writer.close()
                await writer.wait_closed()
                assert b"405" in raw.split(b"\r\n", 1)[0]
            finally:
                await server.stop()

        run(scenario())

    def test_query_strings_are_stripped(self, run):
        async def scenario():
            server = await _served(MetricsRegistry())
            try:
                status, _ = await _get(server, "/healthz?verbose=1")
                assert status == 200
            finally:
                await server.stop()

        run(scenario())

    def test_unhealthy_provider_answers_503(self, run):
        async def scenario():
            server = await _served(
                MetricsRegistry(),
                lambda: {"status": "degraded", "peers_down": ["r9"]},
            )
            try:
                status, body = await _get(server, "/healthz")
                assert status == 503
                assert json.loads(body)["peers_down"] == ["r9"]
            finally:
                await server.stop()

        run(scenario())

    def test_raising_provider_degrades_instead_of_hanging(self, run):
        def bad_provider():
            raise RuntimeError("boom")

        async def scenario():
            server = await _served(MetricsRegistry(), bad_provider)
            try:
                status, body = await _get(server, "/healthz")
                assert status == 503
                assert json.loads(body)["status"] == "error"
            finally:
                await server.stop()

        run(scenario())

    def test_content_type_is_prometheus_text(self):
        assert "version=0.0.4" in CONTENT_TYPE_TEXT


class TestExpositionEdgeCases:
    def test_empty_registry_scrape_parses_to_nothing(self, run):
        async def scenario():
            server = await _served(MetricsRegistry())
            try:
                status, body = await _get(server, "/metrics")
                assert status == 200
                assert parse_prometheus_text(body.decode()) == {}
            finally:
                await server.stop()

        run(scenario())

    def test_zero_observation_histogram_renders_complete(self, run):
        async def scenario():
            registry = MetricsRegistry()
            registry.histogram("proc_seconds", buckets=(0.1, 1.0))
            server = await _served(registry)
            try:
                _, body = await _get(server, "/metrics")
            finally:
                await server.stop()
            parsed = parse_prometheus_text(body.decode())
            assert parsed["proc_seconds_sum"] == {(): 0.0}
            assert parsed["proc_seconds_count"] == {(): 0.0}
            buckets = parsed["proc_seconds_bucket"]
            assert buckets[(("le", "0.1"),)] == 0.0
            assert buckets[(("le", "1"),)] == 0.0
            assert buckets[(("le", "+Inf"),)] == 0.0

        run(scenario())

    def test_inf_bucket_carries_the_overflow(self, run):
        async def scenario():
            registry = MetricsRegistry()
            hist = registry.histogram("proc_seconds", buckets=(0.1,))
            hist.observe(0.05)
            hist.observe(5.0)  # beyond the last bound
            server = await _served(registry)
            try:
                _, body = await _get(server, "/metrics")
            finally:
                await server.stop()
            parsed = parse_prometheus_text(body.decode())
            buckets = parsed["proc_seconds_bucket"]
            assert buckets[(("le", "0.1"),)] == 1.0
            assert buckets[(("le", "+Inf"),)] == 2.0
            assert parsed["proc_seconds_count"] == {(): 2.0}


        run(scenario())


class TestHttpGet:
    def test_connection_refused_raises(self, run):
        async def scenario():
            with pytest.raises((ConnectionError, OSError)):
                await http_get("127.0.0.1", 1, "/metrics", timeout=2.0)

        run(scenario())


class TestServeRegistry:
    def test_one_shot_server_serves_until_duration(self, run):
        registry = MetricsRegistry()
        registry.gauge("up").set(1.0)
        ready = threading.Event()
        bound = {}

        def on_ready(port):
            bound["port"] = port
            ready.set()

        thread = threading.Thread(
            target=serve_registry,
            args=(registry,),
            kwargs=dict(duration=1.5, device="sim", on_ready=on_ready),
            daemon=True,
        )
        thread.start()
        assert ready.wait(10.0), "serve_registry never became ready"

        async def scrape():
            status, body = await http_get(
                "127.0.0.1", bound["port"], "/metrics"
            )
            assert status == 200
            assert "up 1" in body.decode()
            status, body = await http_get(
                "127.0.0.1", bound["port"], "/healthz"
            )
            health = json.loads(body)
            assert health["device"] == "sim"
            assert health["backend"] == "registry"

        run(scrape())
        thread.join(15.0)
        assert not thread.is_alive()


class TestPlannedPortRetry:
    def test_taken_port_shifts_within_the_window(self, run):
        async def scenario():
            registry = MetricsRegistry()
            squatter = await _served(registry)  # holds an ephemeral port
            server = TelemetryServer(
                lambda: registry, port=squatter.port, port_retry_window=3
            )
            await server.start()
            try:
                # Bound one (or more) ports over, and reporting it back.
                assert squatter.port < server.port <= squatter.port + 3
                status, _ = await _get(server, "/healthz")
                assert status == 200
            finally:
                await server.stop()
                await squatter.stop()

        run(scenario())

    def test_exhausted_window_raises(self, run):
        async def scenario():
            registry = MetricsRegistry()
            squatter = await _served(registry)
            blockers = []
            try:
                # Occupy the retry window too.  A port some other
                # socket already holds blocks the window just as well.
                for offset in (1, 2):
                    blocker = TelemetryServer(
                        lambda: registry, port=squatter.port + offset
                    )
                    try:
                        await blocker.start()
                    except OSError:
                        continue
                    blockers.append(blocker)
                server = TelemetryServer(
                    lambda: registry,
                    port=squatter.port,
                    port_retry_window=2,
                )
                with pytest.raises(OSError):
                    await server.start()
            finally:
                for blocker in blockers:
                    await blocker.stop()
                await squatter.stop()

        run(scenario())

    def test_ephemeral_request_never_retries(self, run):
        async def scenario():
            server = TelemetryServer(
                lambda: MetricsRegistry(), port=0, port_retry_window=5
            )
            await server.start()
            try:
                assert server.port > 0
            finally:
                await server.stop()

        run(scenario())
