"""Figure 14: on-device initialization overhead CDFs.

Per device, measured once on this host, and per switch model
(Mellanox/UfiSpace/Edgecore x86, Centec ARM -- each a CPU scale factor
times that one reading): total time, peak memory and CPU load to compute
the initial LEC table and CIBs in a burst update.

Paper's observations to reproduce in shape: all devices initialize in
about a second, memory stays in the tens of MB, the ARM-based Centec is
the slowest model.
"""

import statistics

from conftest import write_table

from repro.bench.microbench import measure_initialization
from repro.bench.reporting import cdf_points, print_table
from repro.bench.workloads import build_workload
from repro.simulator.network import SWITCH_PROFILES

_RESULTS = {}


def run_measurements():
    if "init" not in _RESULTS:
        workload = build_workload(
            "INet2", max_destinations=None, prefixes_per_device=2
        )
        _RESULTS["init"] = measure_initialization(workload, SWITCH_PROFILES)
    return _RESULTS["init"]


def test_initialization_overhead(benchmark):
    results = benchmark.pedantic(run_measurements, rounds=1, iterations=1)
    assert len(results) == 9 * len(SWITCH_PROFILES)


def test_fig14_cdfs(out_dir, benchmark):
    results = benchmark.pedantic(run_measurements, rounds=1, iterations=1)
    sections = []
    for profile in SWITCH_PROFILES:
        times = [
            overhead.total_seconds
            for overhead in results
            if overhead.model == profile.name
        ]
        memories = [
            overhead.peak_memory_bytes / 1e6
            for overhead in results
            if overhead.model == profile.name
        ]
        rows = [
            {
                "fraction": f"{fraction:.2f}",
                "time": value,
                "memory_MB": f"{memory:.2f}",
            }
            for (value, fraction), (memory, _) in zip(
                cdf_points(times, 5), cdf_points(memories, 5)
            )
        ]
        sections.append(
            print_table(
                f"Figure 14 CDF -- {profile.name} "
                f"({profile.cpu_scale:.2f}x one x86 reading)",
                rows,
            )
        )
    write_table(out_dir, "fig14_init_overhead.txt", "\n".join(sections))


def test_shape_centec_slowest(benchmark):
    """The ARM-based Centec model has the worst time CDF (paper §9.4)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    results = run_measurements()
    by_model = {}
    for overhead in results:
        by_model.setdefault(overhead.model, []).append(overhead.total_seconds)
    medians = {
        model: statistics.median(times) for model, times in by_model.items()
    }
    assert max(medians, key=medians.get) == "Centec"


def test_shape_cpu_load_bounded(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    results = run_measurements()
    assert all(overhead.cpu_load <= 0.5 for overhead in results)
