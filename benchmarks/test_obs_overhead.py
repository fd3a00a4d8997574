"""Telemetry overhead microbench: tracing, serving, and flight stay cheap.

Tracing is opt-in; when it *is* on, the acceptance budget is <= 10 %
wall-clock overhead on the INet2 burst workload.  The same budget
applies to the runtime backend's embedded telemetry servers when they
are up but *unscraped* (an idle ``asyncio.Server`` per agent must cost
nothing on the datapath).  The flight recorder is held to a tighter
<= 5 % budget -- it is meant to stay on in production -- and must leave
the counting traffic byte-identical (the Lamport clock is stamped in
every frame at fixed width whether or not anyone records).  Wall times
on a busy CI box are noisy, so variants run interleaved and the
comparison uses best-of-N (the minimum is the least-perturbed sample of
a deterministic computation); a small epsilon absorbs timer jitter on
the sub-100 ms runs.
"""

import time

from conftest import write_table

from repro.bench.reporting import format_seconds, print_table
from repro.bench.runners import run_runtime_burst, run_tulkun_burst
from repro.bench.workloads import build_workload
from repro.obs.trace import Tracer

ROUNDS = 5
RUNTIME_ROUNDS = 3
OVERHEAD_BUDGET = 1.10
FLIGHT_OVERHEAD_BUDGET = 1.05
EPSILON_SECONDS = 0.020
RUNTIME_EPSILON_SECONDS = 0.050


def _one_burst(tracer):
    workload = build_workload("INet2", max_destinations=3)
    start = time.perf_counter()
    timing = run_tulkun_burst(workload, tracer=tracer)
    return time.perf_counter() - start, timing, tracer


def run_interleaved():
    _one_burst(None)  # warmup: prime caches and imports
    plain_walls, traced_walls = [], []
    last_plain = last_traced = None
    for _ in range(ROUNDS):
        wall, timing, _ = _one_burst(None)
        plain_walls.append(wall)
        last_plain = timing
        wall, timing, tracer = _one_burst(Tracer())
        traced_walls.append(wall)
        last_traced = (timing, tracer)
    return plain_walls, traced_walls, last_plain, last_traced


def test_tracing_overhead_within_budget(benchmark, out_dir):
    plain_walls, traced_walls, plain, (traced, tracer) = benchmark.pedantic(
        run_interleaved, rounds=1, iterations=1
    )
    plain_best = min(plain_walls)
    traced_best = min(traced_walls)
    records = len(tracer)
    rows = [
        {
            "variant": "tracing off",
            "best wall": format_seconds(plain_best),
            "median wall": format_seconds(sorted(plain_walls)[len(plain_walls) // 2]),
            "records": 0,
        },
        {
            "variant": "tracing on",
            "best wall": format_seconds(traced_best),
            "median wall": format_seconds(sorted(traced_walls)[len(traced_walls) // 2]),
            "records": records,
        },
    ]
    text = print_table("Telemetry overhead: INet2 burst", rows)
    write_table(out_dir, "obs_overhead.txt", text)

    assert records > 0, "tracer attached but recorded nothing"
    # Identical counting traffic either way (the paper-metric outputs
    # are untouched by observation).
    assert traced.messages == plain.messages
    assert traced.bytes == plain.bytes
    assert traced_best <= plain_best * OVERHEAD_BUDGET + EPSILON_SECONDS, (
        f"tracing overhead {traced_best / plain_best:.2f}x exceeds "
        f"{OVERHEAD_BUDGET:.2f}x budget "
        f"({format_seconds(plain_best)} -> {format_seconds(traced_best)})"
    )


def _one_flight_burst(flight):
    workload = build_workload("INet2", max_destinations=3)
    start = time.perf_counter()
    timing = run_tulkun_burst(workload, flight=flight)
    return time.perf_counter() - start, timing


def run_flight_interleaved():
    _one_flight_burst(False)  # warmup
    plain_walls, flight_walls = [], []
    last_plain = last_flight = None
    for _ in range(ROUNDS):
        wall, timing = _one_flight_burst(False)
        plain_walls.append(wall)
        last_plain = timing
        wall, timing = _one_flight_burst(True)
        flight_walls.append(wall)
        last_flight = timing
    return plain_walls, flight_walls, last_plain, last_flight


def test_flight_recorder_overhead_within_budget(benchmark, out_dir):
    """Always-on forensics: <= 5% burst overhead, identical traffic."""
    plain_walls, flight_walls, plain, flight = benchmark.pedantic(
        run_flight_interleaved, rounds=1, iterations=1
    )
    plain_best = min(plain_walls)
    flight_best = min(flight_walls)
    events = sum(
        dump["next_seq"] for dump in flight.network.flight_dump().values()
    )
    rows = [
        {
            "variant": "flight off",
            "best wall": format_seconds(plain_best),
            "median wall": format_seconds(
                sorted(plain_walls)[len(plain_walls) // 2]
            ),
            "events": 0,
        },
        {
            "variant": "flight on",
            "best wall": format_seconds(flight_best),
            "median wall": format_seconds(
                sorted(flight_walls)[len(flight_walls) // 2]
            ),
            "events": events,
        },
    ]
    text = print_table("Flight-recorder overhead: INet2 burst", rows)
    write_table(out_dir, "obs_flight_overhead.txt", text)

    assert events > 0, "flight recording on but no events recorded"
    # Byte-identical counting traffic: clock stamping is unconditional
    # and fixed-width, so recording can never perturb the wire.
    assert flight.messages == plain.messages
    assert flight.bytes == plain.bytes
    assert (
        flight_best
        <= plain_best * FLIGHT_OVERHEAD_BUDGET + EPSILON_SECONDS
    ), (
        f"flight-recorder overhead {flight_best / plain_best:.2f}x exceeds "
        f"{FLIGHT_OVERHEAD_BUDGET:.2f}x budget "
        f"({format_seconds(plain_best)} -> {format_seconds(flight_best)})"
    )


def _one_runtime_burst(http_enabled):
    workload = build_workload("INet2", max_destinations=2)
    start = time.perf_counter()
    timing = run_runtime_burst(
        workload,
        http_enabled=http_enabled,
        keepalive_interval=0.2,
    )
    return time.perf_counter() - start, timing


def run_runtime_interleaved():
    _one_runtime_burst(False)  # warmup
    plain_walls, served_walls = [], []
    last_plain = last_served = None
    for _ in range(RUNTIME_ROUNDS):
        wall, timing = _one_runtime_burst(False)
        plain_walls.append(wall)
        last_plain = timing
        wall, timing = _one_runtime_burst(True)
        served_walls.append(wall)
        last_served = timing
    return plain_walls, served_walls, last_plain, last_served


def test_http_server_overhead_within_budget(benchmark, out_dir):
    """Telemetry servers up but unscraped: <= 10% runtime-burst overhead."""
    plain_walls, served_walls, plain, served = benchmark.pedantic(
        run_runtime_interleaved, rounds=1, iterations=1
    )
    plain_best = min(plain_walls)
    served_best = min(served_walls)
    rows = [
        {
            "variant": "http off",
            "best wall": format_seconds(plain_best),
            "median wall": format_seconds(
                sorted(plain_walls)[len(plain_walls) // 2]
            ),
        },
        {
            "variant": "http on (unscraped)",
            "best wall": format_seconds(served_best),
            "median wall": format_seconds(
                sorted(served_walls)[len(served_walls) // 2]
            ),
        },
    ]
    text = print_table(
        "Telemetry overhead: INet2 runtime burst, /metrics unscraped", rows
    )
    write_table(out_dir, "obs_http_overhead.txt", text)

    # Counting traffic is untouched by the idle telemetry servers.
    assert served.messages == plain.messages
    assert served.bytes == plain.bytes
    assert (
        served_best
        <= plain_best * OVERHEAD_BUDGET + RUNTIME_EPSILON_SECONDS
    ), (
        f"http-server overhead {served_best / plain_best:.2f}x exceeds "
        f"{OVERHEAD_BUDGET:.2f}x budget "
        f"({format_seconds(plain_best)} -> {format_seconds(served_best)})"
    )
