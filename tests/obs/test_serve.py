"""The telemetry HTTP server: endpoints, exposition edge cases, client."""

import asyncio
import json

import pytest

from repro.obs.collector import parse_prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.serve import CONTENT_TYPE_TEXT, TelemetryServer, http_get


def _healthy():
    return {"status": "ok"}


async def _served(registry, health_provider=_healthy):
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
                assert json.loads(body) == {"status": "ok"}
                # The registry has one rendering: /metrics.
                status, _ = await _get(server, "/vars")
                assert status == 404
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

    def test_head_sends_the_headers_without_the_body(self, run):
        async def scenario():
            registry = MetricsRegistry()
            registry.counter("dvm_frames").inc(3)
            server = await _served(registry)
            try:
                raws = []
                for method in (b"GET", b"HEAD"):
                    reader, writer = await asyncio.open_connection(
                        server.host, server.port
                    )
                    writer.write(
                        method + b" /metrics HTTP/1.1\r\n"
                        b"Connection: close\r\n\r\n"
                    )
                    await writer.drain()
                    raws.append(await reader.read(-1))
                    writer.close()
                    await writer.wait_closed()
            finally:
                await server.stop()
            get_head, get_body = raws[0].split(b"\r\n\r\n", 1)
            head_head, head_body = raws[1].split(b"\r\n\r\n", 1)
            assert get_body and head_body == b""
            # The same status line and headers, Content-Length included.
            assert head_head == get_head
            assert f"Content-Length: {len(get_body)}".encode() in head_head

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


class TestPlannedPortRetry:
    def test_taken_port_shifts_within_the_window(self, run):
        async def scenario():
            registry = MetricsRegistry()
            squatter = await _served(registry)  # holds an ephemeral port
            server = TelemetryServer(
                lambda: registry,
                _healthy,
                port=squatter.port,
                port_retry_window=3,
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
                        lambda: registry, _healthy, port=squatter.port + offset
                    )
                    try:
                        await blocker.start()
                    except OSError:
                        continue
                    blockers.append(blocker)
                server = TelemetryServer(
                    lambda: registry,
                    _healthy,
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
                lambda: MetricsRegistry(),
                _healthy,
                port=0,
                port_retry_window=5,
            )
            await server.start()
            try:
                assert server.port > 0
            finally:
                await server.stop()

        run(scenario())
