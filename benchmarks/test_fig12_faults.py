"""Figure 12: verification under fault scenes (§9.3.4).

For each WAN/LAN dataset: generate random scenes of <= 3 link failures
(the paper uses 50, based on Microsoft WAN failure statistics; we default
to a smaller sample, same distribution), measure (a) the time to verify
the complete network with the updated topology -- Tulkun recounts after
link-state flooding, centralized tools re-verify their (unchanged) ECs --
and (b) incremental verification after the scene.
"""

import pytest
from conftest import deploy_workload, full_sweep, write_table

from repro.baselines import ALL_BASELINES
from repro.baselines.collection import CollectionModel
from repro.bench.reporting import (
    acceleration_row,
    print_table,
    quantile_row,
    under_10ms_row,
)
from repro.bench.runners import quantile, run_baseline_incremental
from repro.bench.workloads import (
    build_workload,
    random_fault_scenes,
    random_rule_updates,
)

FAULT_DATASETS = ("INet2", "B4-13", "STFD", "AT1-1")
NUM_SCENES = 8
NUM_UPDATES = 20

_RESULTS = {}


def run_dataset(dataset):
    """Per scene: Tulkun recount time + centralized re-verification, then
    an update stream under the final scene."""
    if dataset in _RESULTS:
        return _RESULTS[dataset]
    workload = build_workload(dataset, max_destinations=4, prefixes_per_device=2)
    scenes = random_fault_scenes(
        workload.topology, count=NUM_SCENES, max_failures=3, seed=77
    )

    # (a) full-network verification time per scene.
    tulkun_scene_times = []
    deployment, _ = deploy_workload(workload)
    failed_now = set()
    for scene in scenes:
        seconds = 0.0
        # transition from the previous scene to this one
        for link in list(failed_now):
            if link not in scene.failed:
                seconds += deployment.recover_link(*link)
                failed_now.discard(link)
        for link in scene.failed:
            if link not in failed_now:
                seconds += deployment.fail_link(*link)
                failed_now.add(link)
        tulkun_scene_times.append(seconds)

    baseline_scene_times = {}
    for verifier_cls in ALL_BASELINES:
        verifier = verifier_cls(workload.factory)
        verifier.load_snapshot(workload.fibs)
        collection = CollectionModel(workload.topology)
        times = []
        for scene in scenes:
            # Centralized: devices report the topology change (one-way
            # latency) and the verifier re-checks every invariant (its
            # ECs are unchanged -- no rule update happened).
            result = verifier.verify(workload.plans)
            times.append(
                collection.burst_collection_latency() + result.compute_seconds
            )
        baseline_scene_times[verifier_cls.name] = times

    # (b) incremental updates under the final scene.
    updates = random_rule_updates(workload, NUM_UPDATES, seed=78)
    tulkun_inc = [
        deployment.update_rule(update.device, update.apply)
        for update in updates
    ]
    baseline_inc = {}
    for verifier_cls in ALL_BASELINES:
        verifier = verifier_cls(workload.factory)
        verifier.load_snapshot(workload.fibs)
        collection = CollectionModel(workload.topology)
        updates = random_rule_updates(workload, NUM_UPDATES, seed=78)
        timing = run_baseline_incremental(
            workload, updates, verifier, collection
        )
        baseline_inc[verifier_cls.name] = timing.incremental_seconds

    _RESULTS[dataset] = (
        tulkun_scene_times,
        baseline_scene_times,
        tulkun_inc,
        baseline_inc,
    )
    return _RESULTS[dataset]


@pytest.mark.parametrize("dataset", FAULT_DATASETS)
def test_fault_scene_verification(dataset, benchmark):
    tulkun_scenes, *_ = (
        _RESULTS[dataset] if dataset in _RESULTS else run_dataset(dataset)
    )

    def average():
        return sum(tulkun_scenes) / len(tulkun_scenes)

    assert benchmark.pedantic(average, rounds=1, iterations=1) >= 0


def test_fig12a_table(out_dir, benchmark):
    def build_rows():
        rows = []
        for dataset in FAULT_DATASETS:
            tulkun_scenes, baseline_scenes, _, _ = run_dataset(dataset)
            tulkun_avg = sum(tulkun_scenes) / len(tulkun_scenes)
            baseline_avg = {
                name: sum(times) / len(times)
                for name, times in baseline_scenes.items()
            }
            rows.append(acceleration_row(dataset, tulkun_avg, baseline_avg))
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    text = print_table(
        "Figure 12a: average verification time over fault scenes "
        "(Tulkun) and acceleration ratios",
        rows,
    )
    write_table(out_dir, "fig12a_faults.txt", text)


def test_fig12b_table(out_dir, benchmark):
    def build_rows():
        rows = []
        for dataset in FAULT_DATASETS:
            _, _, tulkun_inc, baseline_inc = run_dataset(dataset)
            rows.append(under_10ms_row(dataset, tulkun_inc, baseline_inc))
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    text = print_table(
        "Figure 12b: % of incremental verifications < 10 ms in fault scenes",
        rows,
    )
    write_table(out_dir, "fig12b_faults.txt", text)


def test_fig12c_table(out_dir, benchmark):
    def build_rows():
        rows = []
        for dataset in FAULT_DATASETS:
            _, _, tulkun_inc, baseline_inc = run_dataset(dataset)
            rows.append(quantile_row(dataset, tulkun_inc, baseline_inc))
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    text = print_table(
        "Figure 12c: 80% quantile of incremental verification in fault "
        "scenes",
        rows,
    )
    write_table(out_dir, "fig12c_faults.txt", text)


def test_shape_incremental_wins_under_faults(benchmark):
    """Tulkun's post-scene incremental quantile beats the centralized
    tools on WANs (same §9.3.4 conclusion)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for dataset in ("INet2", "B4-13", "AT1-1"):
        _, _, tulkun_inc, baseline_inc = run_dataset(dataset)
        tulkun_q = quantile(tulkun_inc, 0.8)
        for name, times in baseline_inc.items():
            assert quantile(times, 0.8) > tulkun_q, (dataset, name)
