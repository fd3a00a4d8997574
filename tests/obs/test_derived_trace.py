"""The trace derived from flight dumps: what ``records_from_flight``
promises, on Figure 2a and INet2, under the simulator and the TCP
runtime, plus the checked flight event catalog of
``docs/OBSERVABILITY.md``.
"""

import asyncio
import json
import re
from collections import Counter
from pathlib import Path

import pytest

from repro.bench.workloads import build_workload
from repro.cli import main
from repro.dataplane.actions import Forward
from repro.dataplane.routes import PRIORITY_ERROR, RouteConfig, install_routes
from repro.obs.export import validate_records
from repro.obs.flight import merge_dumps, records_from_flight
from repro.obs.trace import KIND_SPAN
from repro.packetspace.fields import DSTIP_ONLY_LAYOUT
from repro.packetspace.predicate import PredicateFactory
from repro.planner import plan_invariant
from repro.runtime.cluster import RuntimeCluster
from repro.simulator.network import SimulatedNetwork
from repro.spec import library
from repro.topology.generators import paper_example
from repro.topology.graph import FaultScene
from tests.integration.test_fault_tolerance import make_plan

from .conftest import FAST_CLUSTER, run_async

OBSERVABILITY_MD = (
    Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"
)
STEPS = ("admin", "frame_rx", "peer_down")
RING = 1 << 14  # nothing below wraps unless it asks to


def figure2a():
    """(topology, fibs, factory, plans): the paper's example network."""
    topology = paper_example()
    factory = PredicateFactory(DSTIP_ONLY_LAYOUT)
    fibs = install_routes(topology, factory, RouteConfig(ecmp="any"))
    packets = factory.dst_prefix("10.0.0.0/23")
    plan = plan_invariant(
        library.bounded_reachability(packets, "S", "D", 2), topology
    )
    return topology, fibs, factory, {"reach": plan}


def inet2():
    workload = build_workload("INet2", max_destinations=1)
    return (
        workload.topology,
        workload.fibs,
        workload.factory,
        dict(workload.plans),
    )


WORKLOADS = {"figure2a": figure2a, "inet2": inet2}


def simulate(workload, **options):
    topology, fibs, factory, plans = workload
    network = SimulatedNetwork(topology, fibs, factory, **options)
    network.install_plans(plans)
    return network


def run_runtime(workload, scenario=None, **options):
    """Install the plans on a TCP cluster, run ``scenario(cluster)`` and
    return the flight dumps."""
    topology, fibs, factory, plans = workload

    async def drive():
        cluster = RuntimeCluster(
            topology, fibs, factory, http_enabled=False,
            **FAST_CLUSTER, **options,
        )
        await cluster.start()
        try:
            await cluster.install_plans(plans)
            if scenario is not None:
                await scenario(cluster)
            return cluster.flight_dump()
        finally:
            await cluster.stop()

    return run_async(drive())


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def dumps(request):
    """``{backend: flight dumps}`` of one install burst."""
    build = WORKLOADS[request.param]
    return {
        "simulator": simulate(
            build(), flight=True, flight_capacity=RING
        ).flight_dump(),
        "runtime": run_runtime(build(), flight_capacity=RING),
    }


@pytest.mark.parametrize("backend", ["simulator", "runtime"])
def test_every_frame_rx_is_one_recv_span_parented_on_the_sender(
    dumps, backend
):
    merged = merge_dumps(dumps[backend])
    assert not merged["truncated"]
    records = records_from_flight(dumps[backend])
    assert validate_records(records) == []
    by_id = {record.span_id: record for record in records}
    spans = [record for record in records if record.kind == KIND_SPAN]

    arrivals = Counter(
        (e["device"], e["peer"], e["clock"], f"recv {e['kind']}")
        for e in merged["events"]
        if e["etype"] == "frame_rx"
    )
    recv = Counter(
        (r.device, r.attrs["peer"], r.attrs["clock"], r.name)
        for r in spans
        if r.name.startswith("recv ")
    )
    assert arrivals and recv == arrivals
    assert set(arrivals.values()) == {1}
    for record in spans:
        if record.name.startswith("recv ") and record.attrs["plan"]:
            assert by_id[record.parent_id].device == record.attrs["peer"]

    steps = sum(e["etype"] in STEPS for e in merged["events"])
    ops = sum(e["etype"] == "op" for e in merged["events"])
    assert ops == 1 and len(spans) == steps + ops
    # Every step was timed by its driver, on the recorder's own clock.
    for record in spans:
        assert record.duration > 0


def test_both_backends_derive_the_same_spans(dumps):
    def shape(backend):
        return Counter(
            (record.device, record.name)
            for record in records_from_flight(dumps[backend])
            if record.kind == KIND_SPAN
        )

    assert shape("simulator") == shape("runtime")


def test_a_wrapped_ring_gives_null_parents_and_a_failing_trace(tmp_path):
    dump = simulate(figure2a(), flight=True, flight_capacity=8).flight_dump()
    merged = merge_dumps(dump)
    assert merged["dropped"] > 0
    records = records_from_flight(dump)
    assert validate_records(records) == []  # null, never dangling
    assert any(
        record.parent_id is None
        for record in records
        if record.name.startswith("recv ")
    )

    path = tmp_path / "wrapped.json"
    path.write_text(json.dumps(dump, default=str), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["trace", str(path), "--out", str(out)]) == 1
    assert (out / "trace.chrome.json").stat().st_size

    whole = tmp_path / "whole.json"
    whole.write_text(
        json.dumps(
            simulate(figure2a(), flight=True, flight_capacity=RING).flight_dump(),
            default=str,
        ),
        encoding="utf-8",
    )
    assert main(["trace", str(whole), "--out", str(out)]) == 0


def test_a_disabled_recorder_derives_nothing_and_sends_the_same_frames():
    recording = simulate(figure2a(), flight=True)
    silent = simulate(figure2a())
    assert records_from_flight(silent.flight_dump()) == []
    assert records_from_flight(recording.flight_dump())
    assert (silent.stats.messages, silent.stats.bytes) == (
        recording.stats.messages,
        recording.stats.bytes,
    )


# -- the event catalog ---------------------------------------------------------


def documented_catalog():
    """``etype -> payload field names`` from the "Event catalog" table."""
    text = OBSERVABILITY_MD.read_text(encoding="utf-8")
    section = text.split("### Event catalog", 1)[1].split("\n\n", 2)[1]
    catalog = {}
    for line in section.splitlines()[2:]:
        cells = [cell.strip() for cell in line.split("|")[1:-1]]
        catalog[cells[0].strip("`")] = set(re.findall(r"`(\w+)`", cells[2]))
    return catalog


def test_observability_md_event_catalog_matches_what_is_recorded():
    """One runtime scenario on Figure 2a that records every etype."""
    topology, fibs, factory, plans = figure2a()
    # An ``equal`` plan over a pinned route: a local-mode violation.
    space = factory.dst_prefix("10.0.0.0/24")
    fibs["A"].insert(PRIORITY_ERROR, space, Forward(["W"]), label="pin")
    plans["local"] = plan_invariant(
        library.all_shortest_path_availability(space, "S", "D"), topology
    )
    # Tolerates only A-B failing: B-W failing is an unplanned scene.
    plans["ft"] = make_plan(
        topology, factory.dst_prefix("10.0.0.0/23"), (FaultScene([("A", "B")]),)
    )

    async def scenario(cluster):
        await cluster.drop_connection("B", "D")
        await cluster.fail_link("B", "W")
        # A peer that dials and sends garbage instead of its OPEN.
        host = cluster.hosts["A"]
        _, writer = await asyncio.open_connection("127.0.0.1", host.port)
        writer.write(b"\xff" * 64)
        await writer.drain()
        for _ in range(500):
            if host.metrics.handshake_failures.value:
                break
            await asyncio.sleep(0.01)
        writer.close()

    events = merge_dumps(
        run_runtime((topology, fibs, factory, plans), scenario)
    )["events"]
    common = {"seq", "device", "etype", "lamport", "t", "cause"}
    recorded = {}
    for event in events:
        recorded.setdefault(event["etype"], set()).update(set(event) - common)
    assert recorded == documented_catalog()
    for event in events:
        assert common - {"cause"} <= set(event)
