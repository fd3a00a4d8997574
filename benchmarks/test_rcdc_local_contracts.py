"""RCDC local contracts on the DC datasets (the paper's tech-report
companion: "Tulkun also verifies the local contracts of all-shortest-path
availability of DC, as RCDC does").

The equal-operator invariant verifies with *empty* counting information:
no UPDATE messages at all, every device checks its FIB against its
DPVNet neighbor sets locally.  This is the paper's claim that RCDC's
local contracts are a special case of Tulkun (Prop. 1's equal case).
"""

import pytest
from conftest import write_table

from repro.bench.reporting import format_seconds, print_table
from repro.core import Tulkun
from repro.planner import plan_invariant
from repro.spec import library

DATASETS = ("FT-48", "NGDC")

_RESULTS = {}


def contract_plan(workload):
    """All-shortest-path availability from the first ToR to the last."""
    tors = workload.topology.devices_with_prefixes()
    source, destination = tors[0], tors[-1]
    cidr = workload.topology.external_prefixes(destination)[0]
    packets = workload.factory.dst_prefix(cidr)
    return plan_invariant(
        library.all_shortest_path_availability(packets, source, destination),
        workload.topology,
    )


def install(workload, plan, **options):
    """A fresh simulator deployment with ``plan`` installed as "rcdc"."""
    deployment = Tulkun(workload.topology, workload.factory).deploy(
        workload.fibs, **options
    )
    return deployment, deployment.install({"rcdc": plan})[0]


def run_dataset(workload):
    if workload.name in _RESULTS:
        return _RESULTS[workload.name]
    plan = contract_plan(workload)
    _, report = install(workload, plan)
    _RESULTS[workload.name] = {
        "dataset": workload.name,
        "mode": plan.mode,
        "nodes": plan.dpvnet.num_nodes,
        "verify": format_seconds(report.verification_seconds),
        "holds": report.holds,
        "total_msgs": report.message_count,
    }
    return _RESULTS[workload.name]


@pytest.mark.parametrize("dataset", DATASETS)
def test_local_contracts_verify(dataset, workload_for, benchmark):
    row = benchmark.pedantic(
        lambda: run_dataset(workload_for(dataset)), rounds=1, iterations=1
    )
    assert row["mode"] == "local"
    assert row["holds"]


def test_rcdc_table(workload_for, out_dir, benchmark):
    rows = benchmark.pedantic(
        lambda: [run_dataset(workload_for(d)) for d in DATASETS],
        rounds=1,
        iterations=1,
    )
    text = print_table(
        "RCDC local contracts on DC datasets (equal operator, empty "
        "counting information)",
        rows,
    )
    write_table(out_dir, "rcdc_local_contracts.txt", text)


def test_shape_no_counting_messages(workload_for, benchmark):
    """Prop. 1's equal case: the minimal counting information is the
    empty set -- no UPDATE message may flow."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for dataset in DATASETS:
        workload = workload_for(dataset)
        deployment, _ = install(workload, contract_plan(workload), flight=True)
        dumps = deployment.flight_dump().values()
        assert not any(dump["truncated"] for dump in dumps), dataset
        sent = [
            event["kind"]
            for dump in dumps
            for event in dump["events"]
            if event["etype"] == "frame_tx"
        ]
        assert sent and "UPDATE" not in sent, dataset
