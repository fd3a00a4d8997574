"""Message overhead study (the paper's technical-report companion to
§9.3: "We also study Tulkun's message overhead").

Per dataset: DVM messages and bytes for the burst, and per-update message
counts for an incremental stream.  The key shape: most incremental
updates generate zero or near-zero messages (their counts don't change
upstream), which is why incremental verification stays local.
"""

import pytest
from conftest import (
    BENCH_DC_DATASETS,
    BENCH_WAN_DATASETS,
    deploy_workload,
    write_table,
)

from repro.bench.reporting import print_table
from repro.bench.workloads import random_rule_updates

DATASETS = BENCH_WAN_DATASETS[:4] + BENCH_DC_DATASETS

_RESULTS = {}


def run_dataset(workload):
    if workload.name in _RESULTS:
        return _RESULTS[workload.name]
    deployment, burst = deploy_workload(workload)
    updates = random_rule_updates(workload, 20, seed=55)
    per_update_messages = []
    for update in updates:
        before, _ = deployment.frames_sent()
        deployment.update_rule(update.device, update.apply)
        per_update_messages.append(deployment.frames_sent()[0] - before)
    _RESULTS[workload.name] = {
        "dataset": workload.name,
        "burst_msgs": burst.message_count,
        "burst_KB": round(burst.message_bytes / 1024, 1),
        "msgs/device": round(
            burst.message_count / workload.topology.num_devices, 1
        ),
        "quiet_updates_%": round(
            100
            * sum(1 for count in per_update_messages if count == 0)
            / len(per_update_messages),
            1,
        ),
        "max_update_msgs": max(per_update_messages),
    }
    return _RESULTS[workload.name]


@pytest.mark.parametrize("dataset", DATASETS)
def test_overhead_measured(dataset, workload_for, benchmark):
    row = benchmark.pedantic(
        lambda: run_dataset(workload_for(dataset)), rounds=1, iterations=1
    )
    assert row["burst_msgs"] > 0


def test_overhead_table(workload_for, out_dir, benchmark):
    rows = benchmark.pedantic(
        lambda: [run_dataset(workload_for(d)) for d in DATASETS],
        rounds=1,
        iterations=1,
    )
    text = print_table("DVM message overhead (tech-report companion)", rows)
    write_table(out_dir, "message_overhead.txt", text)


def test_shape_most_updates_are_quiet(workload_for, benchmark):
    """The incremental-locality claim: a majority of updates converge
    without any DVM message leaving the updated device."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for dataset in DATASETS:
        row = run_dataset(workload_for(dataset))
        assert row["quiet_updates_%"] >= 40, (dataset, row)
