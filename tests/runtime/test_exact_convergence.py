"""Convergence is a fact: an operation returns only once it converged.

The old detector watched for silence, so a frame held back inside a
channel's write path for longer than its quiet window (popped from the
send queue, not yet on the wire -- the in-process stand-in for a frame
parked in a kernel buffer) was invisible to it and the operation
returned with a stale verdict.  The counter-based detector cannot: the
frame is in its channel's ``out`` and in no ``done``.

Every scene drives the TCP runtime and the simulator with identical
inputs and requires identical verdicts the moment the runtime call
returns; chaos scenes additionally bound how long detection may take,
so a pass by waiting for a timeout would fail them.
"""

import importlib.util
import pathlib
import re
import time
import types

import pytest

from repro.bench.workloads import random_rule_updates
from repro.runtime.cluster import ClusterTimeoutError, RuntimeCluster

from .test_cluster import (
    SimMirror,
    canonical_verdicts,
    canonical_violations,
    make_workload,
)

HOLD_BACK = pathlib.Path(__file__).resolve().parents[1] / "hold_back"


@pytest.fixture()
def hold(tmp_path):
    """``hold.arm()``: the next counting frame any channel writes is
    held back ``hold.seconds`` (tests/hold_back/sitecustomize.py);
    ``hold.fired()`` tells whether one was."""
    spec = importlib.util.spec_from_file_location(
        "hold_back", HOLD_BACK / "sitecustomize.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    flag = tmp_path / "hold-next-counting-frame"
    uninstall = module.install(str(flag))
    yield types.SimpleNamespace(
        seconds=module.HOLD_SECONDS,
        arm=lambda: flag.write_text("armed"),
        fired=lambda: not flag.exists(),
    )
    uninstall()


def make_updates(workload, count=5):
    # Every update is an injected error; at this seed three of the five
    # hit an installed plan and move its verdicts, so an early read is
    # visible as a mismatch with the simulator.
    return random_rule_updates(workload, count, seed=7, error_rate=1.0)


def state(backend, plan_ids):
    """Canonical verdicts, violations and ``holds`` of every plan."""
    return {
        plan_id: (
            canonical_verdicts(backend.verdicts(plan_id)),
            canonical_violations(backend.all_violations(), plan_id),
            backend.holds(plan_id),
        )
        for plan_id in plan_ids
    }


class Mirror(SimMirror):
    """The simulator over an identical, separately built workload."""

    def __init__(self):
        super().__init__()
        self.plan_ids = [plan_id for plan_id, _ in self.workload.plans]

    def state(self):
        return state(self.network, self.plan_ids)


def test_held_back_frame_is_not_read_past(run, fast_options, hold):
    """fib_update / fail_link / recover_link return converged verdicts
    even when the operation's first frame sits in a write path for
    longer than the old detector's whole quiet window."""
    mirror = Mirror()
    workload = make_workload()
    # The held channel carries no keepalive either: keep the peer's
    # dead-peer timer (3 x keepalive) well beyond the hold.
    options = dict(fast_options, keepalive_interval=0.5)

    async def scenario():
        cluster = RuntimeCluster(
            workload.topology, workload.fibs, workload.factory, **options
        )
        await cluster.start()
        try:
            await cluster.install_plans(dict(workload.plans))
            assert state(cluster, mirror.plan_ids) == mirror.state()

            # Link events first: after the error updates below, delivery
            # order fragments the regions of a link scene differently on
            # the two backends (same verdicts, different lists; see
            # test_link_scenes_after_injected_loops_agree_as_functions).
            link = next(iter(workload.topology.links))
            for operate in ("fail_link", "recover_link"):
                getattr(mirror.network, operate)(link.a, link.b)
                hold.arm()
                await getattr(cluster, operate)(link.a, link.b)
                assert hold.fired()
                assert state(cluster, mirror.plan_ids) == mirror.state()

            moved = 0
            for update, twin in zip(
                make_updates(workload), make_updates(mirror.workload)
            ):
                before = mirror.state()
                mirror.network.fib_update(twin.device, twin.apply)
                hold.arm()
                await cluster.fib_update(update.device, update.apply)
                assert state(cluster, mirror.plan_ids) == mirror.state()
                if mirror.state() != before:
                    # Not vacuous: verdicts moved behind a held frame.
                    assert hold.fired()
                    moved += 1
            assert moved >= 2
        finally:
            await cluster.stop()

    run(scenario())


def test_chaos_scenes_settle_exactly_without_a_timeout(run, fast_options):
    """Link fail/recover and connection drops (with and without
    reconnect) match the simulator on return, and detection takes
    event-driven milliseconds, nowhere near the operation deadline."""
    mirror = Mirror()
    workload = make_workload()
    link = next(iter(workload.topology.links))
    a, b = link.a, link.b

    async def scenario():
        cluster = RuntimeCluster(
            workload.topology, workload.fibs, workload.factory, **fast_options
        )
        await cluster.start()
        try:
            await cluster.install_plans(dict(workload.plans))
            converged = mirror.state()
            assert state(cluster, mirror.plan_ids) == converged

            async def timed(operation):
                start = time.monotonic()
                await operation
                return time.monotonic() - start

            mirror.network.fail_link(a, b)
            assert await timed(cluster.fail_link(a, b)) < 5.0
            assert state(cluster, mirror.plan_ids) == mirror.state()
            assert not cluster.unsettled()

            mirror.network.recover_link(a, b)
            assert await timed(cluster.recover_link(a, b)) < 5.0
            assert state(cluster, mirror.plan_ids) == converged

            # Transport-only fault: the reconnect's re-OPEN refresh is
            # part of the operation, so verdicts are back on return.
            assert await timed(cluster.drop_connection(a, b, 0.1)) < 5.0
            assert cluster.hosts[a].sessions[b].is_established
            assert state(cluster, mirror.plan_ids) == converged

            # No reconnect: settled means both ends ran on_peer_down --
            # the link reads like a failed one, not like a live one whose
            # counters happen to match.
            mirror.network.fail_link(a, b)
            elapsed = await timed(
                cluster.drop_connection(a, b, 30.0, reconnect=False)
            )
            assert elapsed < 5.0
            assert cluster.hosts[a].sessions[b].live_channel is None
            assert cluster.hosts[b].sessions[a].live_channel is None
            degraded = state(cluster, mirror.plan_ids)
            expected = mirror.state()
            for plan_id in mirror.plan_ids:
                # Verdicts equal the simulator's failed-link scene (a
                # dropped session raises no link-state violation).
                assert degraded[plan_id][0] == expected[plan_id][0]
        finally:
            await cluster.stop()

    run(scenario())


def test_timeout_names_what_is_unbalanced(run, fast_options, hold):
    workload = make_workload()
    options = dict(fast_options, keepalive_interval=0.5)

    async def scenario():
        cluster = RuntimeCluster(
            workload.topology, workload.fibs, workload.factory, **options
        )
        await cluster.start()
        try:
            await cluster.install_plans(dict(workload.plans))
            update = make_updates(workload, 3)[2]
            start = cluster.begin_operation("held")
            hold.arm()
            assert cluster.inject_fib_update(update.device, update.apply)
            with pytest.raises(ClusterTimeoutError) as caught:
                await cluster.wait_quiescence(timeout=hold.seconds / 3)
            message = str(caught.value)
            assert re.search(r"outstanding=[1-9]", message), message
            assert re.search(r"INet2-r\d-INet2-r\d out/done", message), message
            await cluster.settle_operation(start)
        finally:
            await cluster.stop()

    run(scenario())


def test_no_settle_knob_or_sleep_paced_wait_remains():
    src = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
    knobs = re.compile(r"settle_rounds|quiescence_grace")
    for package in ("runtime", "fleet"):
        for path in sorted((src / package).glob("*.py")):
            assert not knobs.search(path.read_text()), path
    assert not knobs.search((src / "cli.py").read_text())
