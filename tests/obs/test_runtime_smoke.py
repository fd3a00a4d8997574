"""Derived-trace smoke test on the asyncio/TCP runtime.

Boots a real cluster (flight recorders on, the default) and checks the
lifecycle story the trace derived from its dumps tells end to end:
session establishment instants, causally-linked ``recv UPDATE`` spans
crossing device boundaries, and a quiescence instant parented to the
operation span -- the same shape the simulator backend produces, so one
trace viewer serves both.
"""

from repro.bench.workloads import build_workload
from repro.obs.export import validate_records
from repro.obs.flight import records_from_flight
from repro.obs.trace import CAT_OP, CAT_SESSION
from repro.runtime.cluster import RuntimeCluster


def test_runtime_trace_covers_sessions_wave_and_quiescence(
    run, fast_options
):
    workload = build_workload("INet2", max_destinations=1)

    async def scenario():
        cluster = RuntimeCluster(
            workload.topology,
            workload.fibs,
            workload.factory,
            flight_capacity=1 << 14,
            **fast_options,
        )
        await cluster.start()
        try:
            await cluster.install_plans(dict(workload.plans))
            return cluster.flight_dump()
        finally:
            await cluster.stop()

    records = records_from_flight(run(scenario()))
    assert records, "a runtime burst derived no trace records"
    assert validate_records(records) == []
    by_id = {record.span_id: record for record in records}

    # Every TCP session that came up left an establishment instant.
    established = [
        record
        for record in records
        if record.name == "session.peer_open"
    ]
    assert len(established) == 2 * workload.topology.num_links
    assert all(record.cat == CAT_SESSION for record in established)
    assert all(record.attrs["state"] == "ESTABLISHED" for record in established)
    assert all(record.attrs.get("peer") for record in established)

    # The counting wave: UPDATE deliveries whose parent is the emitting
    # step on the *sending* device.
    recv_updates = [
        record for record in records if record.name == "recv UPDATE"
    ]
    assert recv_updates, "no UPDATE deliveries traced over TCP"
    for record in recv_updates:
        assert by_id[record.parent_id].device == record.attrs["peer"]
        assert record.duration > 0

    # The burst is one operation: an op span wrapping the convergence,
    # with the quiescence instant parented to it.
    ops = [record for record in records if record.cat == CAT_OP]
    assert len(ops) == 1
    op = ops[0]
    assert op.name.startswith("install_plans")
    assert op.attrs.get("convergence_seconds") is not None
    quiescence = [record for record in records if record.name == "quiescence"]
    assert [record.parent_id for record in quiescence] == [op.span_id]
    assert quiescence[0].start >= op.end
