"""Figure 11a: burst-update verification time and acceleration ratios.

Workload per §9.3.1: all-pair loop-free blackhole-free (<= shortest+2)
reachability for WAN/LAN, all-ToR-pair shortest-path reachability for DC.
Tulkun runs distributed in the simulator; each baseline pays simulated
collection latency plus measured compute.

Expected shape (asserted): Tulkun beats every centralized tool on the DC
datasets (small diameter, many rules), and the AT1-1 -> AT1-2 rule-count
crossover favors Tulkun (§9.3.2).
"""

import pytest
from conftest import (
    BENCH_DC_DATASETS,
    BENCH_WAN_DATASETS,
    deploy_workload,
    write_table,
)

from repro.baselines import ALL_BASELINES
from repro.bench.reporting import acceleration_row, print_table
from repro.bench.runners import run_baseline_burst

_RESULTS = {}


def tulkun_burst(workload):
    """Every plan installed at once: the burst's convergence time."""
    return deploy_workload(workload)[1].verification_seconds


def run_dataset(workload):
    if workload.name not in _RESULTS:
        tulkun = tulkun_burst(workload)
        baselines = {}
        for verifier_cls in ALL_BASELINES:
            timing = run_baseline_burst(verifier_cls, workload)
            baselines[verifier_cls.name] = timing.burst_seconds
        _RESULTS[workload.name] = (tulkun, baselines)
    return _RESULTS[workload.name]


@pytest.mark.parametrize("dataset", BENCH_WAN_DATASETS + BENCH_DC_DATASETS)
def test_burst_verification(dataset, workload_for, benchmark):
    workload = workload_for(dataset)
    tulkun, baselines = run_dataset(workload)

    seconds = benchmark.pedantic(
        tulkun_burst, args=(workload,), rounds=1, iterations=1
    )
    assert seconds > 0
    assert all(value > 0 for value in baselines.values())


def test_fig11a_table(workload_for, out_dir, benchmark):
    def build_rows():
        rows = []
        for dataset in BENCH_WAN_DATASETS + BENCH_DC_DATASETS:
            workload = workload_for(dataset)
            tulkun, baselines = run_dataset(workload)
            rows.append(acceleration_row(dataset, tulkun, baselines))
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    text = print_table(
        "Figure 11a: burst verification time (Tulkun) and acceleration "
        "ratios (tool/Tulkun)",
        rows,
    )
    write_table(out_dir, "fig11a_burst.txt", text)


def test_shape_dc_speedup(workload_for, benchmark):
    """On DC datasets Tulkun wins against every centralized tool."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for dataset in BENCH_DC_DATASETS:
        workload = workload_for(dataset)
        tulkun, baselines = run_dataset(workload)
        for name, seconds in baselines.items():
            assert seconds > tulkun, (
                f"{name} should be slower than Tulkun on {dataset}: "
                f"{seconds:.4f}s vs {tulkun:.4f}s"
            )


def test_shape_rule_count_crossover(workload_for, benchmark):
    """§9.3.2: AT1-2 carries 3.39x AT1-1's rules on the same topology.
    Centralized EC computation grows with rule volume; Tulkun's on-device
    LECs absorb it in parallel, so the ratio (tool/Tulkun) must grow."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    light = workload_for("AT1-1")
    heavy = workload_for("AT1-2")
    tulkun_light, base_light = run_dataset(light)
    tulkun_heavy, base_heavy = run_dataset(heavy)
    # The §9.3.2 claim in its essence: added rules cost the centralized
    # verifier (serial ingestion + EC computation over every device's
    # rules) more than they cost Tulkun (per-device LECs in parallel).
    # Collection latency is identical on the shared topology, so the
    # heavy-light delta isolates compute.
    tulkun_delta = tulkun_heavy - tulkun_light
    slower = sum(
        1
        for name in base_light
        if (base_heavy[name] - base_light[name]) > tulkun_delta
    )
    assert slower >= 2, (
        "rule-count growth should cost centralized tools more than Tulkun"
    )
