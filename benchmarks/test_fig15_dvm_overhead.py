"""Figure 15: DVM UPDATE message processing overhead.

Collect each device's received UPDATE trace from a full workload run,
replay it once on a fresh verifier, scale that one reading by each
switch model's CPU factor, and report total time, peak memory and
per-message processing time CDFs.

Paper's shape: 90% of devices process their full trace fast, and 90% of
individual UPDATE messages process in single-digit milliseconds.
"""

from conftest import write_table

from repro.bench.microbench import collect_update_traces, measure_update_processing
from repro.bench.reporting import cdf_points, print_table
from repro.bench.runners import quantile
from repro.bench.workloads import build_workload
from repro.simulator.network import SWITCH_PROFILES

_RESULTS = {}


def run_measurements():
    if "dvm" not in _RESULTS:
        workload = build_workload(
            "INet2", max_destinations=None, prefixes_per_device=2
        )
        traces = collect_update_traces(workload)
        _RESULTS["dvm"] = (
            measure_update_processing(workload, traces, SWITCH_PROFILES),
            traces,
        )
    return _RESULTS["dvm"]


def test_update_processing(benchmark):
    results, traces = benchmark.pedantic(
        run_measurements, rounds=1, iterations=1
    )
    assert results
    assert sum(len(trace) for trace in traces.values()) > 0


def test_fig15_cdfs(out_dir, benchmark):
    results, _ = benchmark.pedantic(run_measurements, rounds=1, iterations=1)
    sections = []
    for profile in SWITCH_PROFILES:
        per_message = [
            seconds
            for overhead in results
            if overhead.model == profile.name
            for seconds in overhead.per_message_seconds
        ]
        totals = [
            overhead.total_seconds
            for overhead in results
            if overhead.model == profile.name
        ]
        rows = [
            {"fraction": f"{fraction:.2f}", "per_message": value}
            for value, fraction in cdf_points(per_message, 6)
        ]
        rows.append(
            {
                "fraction": "dev-total-90%",
                "per_message": quantile(totals, 0.9),
            }
        )
        sections.append(
            print_table(
                f"Figure 15 CDF -- {profile.name} "
                f"({profile.cpu_scale:.2f}x one x86 reading)",
                rows,
            )
        )
    write_table(out_dir, "fig15_dvm_overhead.txt", "\n".join(sections))


def test_shape_per_message_fast(benchmark):
    """90% of UPDATE messages process in <= 3.52 ms on the paper's
    switches; our Python handler on server hardware must land in the same
    order of magnitude."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    results, _ = run_measurements()
    per_message = [
        seconds
        for overhead in results
        if overhead.model == "Mellanox"
        for seconds in overhead.per_message_seconds
    ]
    assert quantile(per_message, 0.9) < 20e-3


def test_shape_memory_bounded(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    results, _ = run_measurements()
    # paper: <= 450 MB worst case; our replay must stay well under that.
    assert all(o.peak_memory_bytes < 450e6 for o in results)
