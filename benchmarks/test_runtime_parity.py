"""Runtime-vs-simulator parity on the INet2 burst workload.

The same workload (identical factories, FIBs, plans, update streams,
deterministically rebuilt per backend) runs once through the
discrete-event simulator and once through the asyncio/TCP runtime.
Asserted: verdict-for-verdict parity.  Reported (``benchmarks/out/``):
wall-clock and message bytes side by side -- the simulator's burst time
is simulated seconds, the runtime's is real seconds over real sockets.
"""

import time

from conftest import write_table

from repro.bench.reporting import format_seconds, print_table
from repro.bench.runners import (
    run_runtime_burst,
    run_tulkun_burst,
    run_tulkun_incremental,
)
from repro.bench.workloads import build_workload, random_rule_updates
from repro.obs.schema import (
    DIRECTION_OUT,
    DVM_METRIC_NAMES,
    KIND_CONTROL,
    KIND_COUNTING,
)

NUM_UPDATES = 10

_RESULTS = {}


def canonical_verdicts(verdicts):
    return sorted(
        (v.ingress, tuple(sorted(v.counts.tuples)), v.holds)
        for v in verdicts
    )


def run_parity():
    if "parity" not in _RESULTS:
        # Each backend gets its own deterministic rebuild: predicates
        # are only comparable within one factory, so parity is checked
        # on canonical verdict tuples.
        sim_workload = build_workload("INet2", max_destinations=3)
        rt_workload = build_workload("INet2", max_destinations=3)

        start = time.perf_counter()
        sim_burst = run_tulkun_burst(sim_workload)
        sim_updates = random_rule_updates(sim_workload, NUM_UPDATES, seed=92)
        sim_inc = run_tulkun_incremental(
            sim_workload, sim_updates, network=sim_burst.network
        )
        sim_wall = time.perf_counter() - start

        rt_updates = random_rule_updates(rt_workload, NUM_UPDATES, seed=92)
        runtime = run_runtime_burst(
            rt_workload,
            rt_updates,
            keepalive_interval=0.2,
        )
        _RESULTS["parity"] = (
            sim_workload,
            rt_workload,
            sim_burst,
            sim_inc,
            sim_wall,
            runtime,
        )
    return _RESULTS["parity"]


def test_backends_reach_identical_verdicts(benchmark):
    (
        sim_workload,
        rt_workload,
        _sim_burst,
        sim_inc,
        _sim_wall,
        runtime,
    ) = benchmark.pedantic(run_parity, rounds=1, iterations=1)
    network = sim_inc.network
    assert runtime.holds, "runtime produced no verdicts"
    for plan_id, _ in rt_workload.plans:
        assert canonical_verdicts(runtime.verdicts[plan_id]) == (
            canonical_verdicts(network.verdicts(plan_id))
        ), f"verdict mismatch for {plan_id}"
        assert runtime.holds[plan_id] == network.holds(plan_id)


def test_backends_export_one_metric_schema():
    """Both backends register the exact instrument set of
    :mod:`repro.obs.schema` -- same names, kinds, labels and buckets --
    so dashboards and the assertions below read either registry."""
    (_, _, _, sim_inc, _, runtime) = run_parity()
    sim_registry = sim_inc.network.stats.registry
    rt_registry = runtime.metrics.registry

    def schema(registry):
        return {
            family.name: family.signature()
            for family in registry.families()
        }

    assert schema(sim_registry) == schema(rt_registry)
    assert set(sim_registry.names()) == set(DVM_METRIC_NAMES)


def test_control_plane_split_is_parity_checkable():
    """The counting/control split holds per backend: the simulator has
    no session layer so its control series exist but stay zero, while
    the runtime's keepalives and session OPENs land only in control."""
    (_, _, _, sim_inc, _, runtime) = run_parity()
    sim_messages = sim_inc.network.stats.families["dvm_messages_total"]
    rt_messages = runtime.metrics.families["dvm_messages_total"]
    assert sim_messages.total(kind=KIND_CONTROL) == 0
    assert (
        sim_messages.total(direction=DIRECTION_OUT, kind=KIND_COUNTING)
        == sim_inc.messages
    )
    assert rt_messages.total(kind=KIND_CONTROL) > 0
    # One source of truth: the registry series IS the per-device counter
    # the timing snapshot summed.  (>= rather than ==: sessions torn down
    # by cluster.stop() fire peer-down recounts after the snapshot.)
    rt_counting_out = rt_messages.total(
        direction=DIRECTION_OUT, kind=KIND_COUNTING
    )
    assert rt_counting_out == sum(
        device.messages_out for device in runtime.metrics.devices.values()
    )
    assert rt_counting_out >= runtime.messages > 0


def test_telemetry_leaves_counting_traffic_byte_identical():
    """Flight recording on the same deterministic workload must not
    change one message or byte of counting traffic, and verdicts stay
    identical."""
    (_, _, _, plain_inc, _, _) = run_parity()
    recorded_workload = build_workload("INet2", max_destinations=3)
    recorded_burst = run_tulkun_burst(recorded_workload, flight=True)
    recorded_updates = random_rule_updates(
        recorded_workload, NUM_UPDATES, seed=92
    )
    recorded_inc = run_tulkun_incremental(
        recorded_workload, recorded_updates, network=recorded_burst.network
    )
    assert not plain_inc.network.flight
    assert any(
        dump["next_seq"] for dump in recorded_inc.network.flight_dump().values()
    ), "recorders on but nothing recorded"
    assert recorded_inc.messages == plain_inc.messages
    assert recorded_inc.bytes == plain_inc.bytes
    for plan_id, _ in recorded_workload.plans:
        assert canonical_verdicts(
            recorded_inc.network.verdicts(plan_id)
        ) == canonical_verdicts(plain_inc.network.verdicts(plan_id))


def test_report_wall_clock_and_bytes(benchmark, out_dir):
    (
        _sim_workload,
        _rt_workload,
        sim_burst,
        sim_inc,
        sim_wall,
        runtime,
    ) = benchmark.pedantic(run_parity, rounds=1, iterations=1)
    rt_inc = runtime.incremental_seconds
    rows = [
        {
            "backend": "simulator",
            "burst": format_seconds(sim_burst.burst_seconds),
            "incr mean": format_seconds(
                sum(sim_inc.incremental_seconds)
                / len(sim_inc.incremental_seconds)
            ),
            "wall clock": format_seconds(sim_wall),
            "messages": sim_inc.messages,
            "msg bytes": sim_inc.bytes,
        },
        {
            "backend": "runtime (TCP)",
            "burst": format_seconds(runtime.burst_seconds),
            "incr mean": format_seconds(sum(rt_inc) / len(rt_inc)),
            "wall clock": format_seconds(runtime.wall_seconds),
            "messages": runtime.messages,
            "msg bytes": runtime.bytes,
        },
    ]
    text = print_table(
        "Runtime vs simulator: INet2 burst + incremental parity", rows
    )
    write_table(out_dir, "runtime_parity.txt", text)
    # Both backends moved real counting traffic.
    assert runtime.messages > 0 and sim_inc.messages > 0
    assert runtime.bytes > 0
