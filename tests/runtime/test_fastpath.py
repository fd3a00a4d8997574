"""The in-process fast path: memory stream pairs and cluster parity.

The fleet runtime routes DVM sessions between co-located agents through
:func:`repro.runtime.fastpath.memory_pair` instead of localhost TCP.
These tests pin the stream-pair semantics the transport layer depends
on, then require a whole-cluster run over the fast path to produce the
exact verdicts of the all-TCP cluster.
"""

import asyncio

import pytest

from repro.bench.workloads import build_workload
from repro.runtime.cluster import RuntimeCluster
from repro.runtime.fastpath import memory_pair


class TestMemoryPair:
    def test_bytes_cross_to_the_peer_reader(self, run):
        async def scenario():
            (reader_a, writer_a), (reader_b, writer_b) = memory_pair()
            writer_a.write(b"ping")
            await writer_a.drain()
            assert await reader_b.readexactly(4) == b"ping"
            writer_b.write(b"pong")
            await writer_b.drain()
            assert await reader_a.readexactly(4) == b"pong"

        run(scenario())

    def test_close_eofs_both_directions(self, run):
        async def scenario():
            (reader_a, writer_a), (reader_b, writer_b) = memory_pair()
            writer_a.write(b"tail")
            writer_a.close()
            await writer_a.wait_closed()
            # Buffered bytes are still readable, then EOF -- both ends.
            assert await reader_b.read() == b"tail"
            assert await reader_a.read() == b""
            assert writer_b.closed

        run(scenario())

    def test_write_after_close_resets(self, run):
        async def scenario():
            (_, writer_a), (_, writer_b) = memory_pair()
            writer_a.transport.abort()
            with pytest.raises(ConnectionResetError):
                writer_b.write(b"late")
            with pytest.raises(ConnectionResetError):
                await writer_a.drain()

        run(scenario())


class TestFastpathClusterParity:
    def test_fastpath_cluster_matches_tcp_verdicts(self, run, fast_options):
        """Same workload, fast path on vs. off: identical verdicts, and
        the fast path really removes the co-located TCP connections."""

        def canonical(cluster, plan_ids):
            return {
                plan_id: sorted(
                    (v.ingress, tuple(sorted(v.counts.tuples)), v.holds)
                    for v in cluster.verdicts(plan_id)
                )
                for plan_id in plan_ids
            }

        async def scenario(local_fastpath):
            workload = build_workload("INet2", max_destinations=2)
            plan_ids = [plan_id for plan_id, _ in workload.plans]
            cluster = RuntimeCluster(
                workload.topology,
                workload.fibs,
                workload.factory,
                local_fastpath=local_fastpath,
                **fast_options,
            )
            await cluster.start()
            try:
                start = cluster.begin_operation("install")
                cluster.inject_plans(dict(workload.plans))
                await cluster.settle_operation(start)
                return canonical(cluster, plan_ids), cluster.metrics
            finally:
                await cluster.stop()

        tcp_verdicts, _ = run(scenario(False))
        fast_verdicts, _ = run(scenario(True))
        assert fast_verdicts == tcp_verdicts
        assert any(
            holds for rows in fast_verdicts.values() for *_, holds in rows
        )
