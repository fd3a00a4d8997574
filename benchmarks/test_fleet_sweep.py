"""§9.3 scale claim: convergence latency tracks diameter, not size.

Fattree fabrics from k=4 (20 devices) to k=16 with 8 rack hosts per ToR
(1,344 devices) run one workload shape -- 4 destinations, 8 sampled
ingresses per invariant -- as a simulator burst, so the fabric is the
only thing that varies.  Every switch-only fattree has diameter 4; the
rack hosts add two hops.  The k=16 fabric has 67x the devices of k=4,
and its burst converges within 10x of k=4's model time.
"""

from conftest import write_table

from repro.bench.reporting import format_seconds, print_table
from repro.bench.runners import run_tulkun_burst
from repro.fleet.spec import FleetSpec, build_fleet_workload

FABRICS = ("ft4", "ft8", "ft12", "ft16h8")

_RESULTS = {}


def run_sweep():
    if not _RESULTS:
        for name in FABRICS:
            workload = build_fleet_workload(
                FleetSpec(topology=name, destinations=4, ingresses=8)
            )
            _RESULTS[name] = (workload.topology, run_tulkun_burst(workload))
    return _RESULTS


def test_latency_tracks_diameter_not_size(benchmark, out_dir):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    rows = [
        {
            "fabric": name,
            "devices": topology.num_devices,
            "diameter": topology.diameter_hops(),
            "burst (model)": format_seconds(burst.burst_seconds),
            "frames": burst.messages,
        }
        for name, (topology, burst) in results.items()
    ]
    text = print_table(
        "fleet scale sweep: burst convergence vs. devices and diameter", rows
    )
    write_table(out_dir, "fleet_sweep.txt", text)
    smallest, small_burst = results["ft4"]
    largest, large_burst = results["ft16h8"]
    assert largest.num_devices >= 67 * smallest.num_devices
    assert large_burst.burst_seconds < 10 * small_burst.burst_seconds
