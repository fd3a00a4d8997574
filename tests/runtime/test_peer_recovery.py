"""Peer loss and recovery reconverge to the pre-failure state.

Satellite coverage for ``OnDeviceVerifier.on_peer_down``: the same
scenario runs on the in-process message pump (the verifier-level
behavior) and on the TCP runtime (where loss detection and the re-OPEN
refresh happen through real sockets).
"""

import asyncio
import time
from collections import deque

import pytest

from repro.dataplane.routes import RouteConfig, install_routes
from repro.dvm.messages import OpenMessage
from repro.dvm.verifier import OnDeviceVerifier
from repro.planner import plan_invariant
from repro.runtime.cluster import RuntimeCluster
from repro.spec import library
from repro.topology.generators import paper_example


def canonical(verdicts):
    return sorted(
        (v.ingress, tuple(sorted(v.counts.tuples)), v.holds)
        for v in verdicts
    )


@pytest.fixture()
def scenario(dst_factory):
    topology = paper_example()
    fibs = install_routes(topology, dst_factory, RouteConfig(ecmp="any"))
    packets = dst_factory.dst_prefix("10.0.0.0/23")
    plan = plan_invariant(
        library.bounded_reachability(packets, "S", "D", 2), topology
    )
    return topology, fibs, plan


class TestPumpBackend:
    """Verifier-level: drop every frame over one link, then restore."""

    def test_peer_loss_then_reopen_restores_verdicts(
        self, scenario, dst_factory
    ):
        topology, fibs, plan = scenario
        verifiers = {
            device: OnDeviceVerifier(
                device, dst_factory, fibs[device], topology.neighbors(device)
            )
            for device in topology.devices
        }
        dead_link = set()

        def pump(queue):
            while queue:
                destination, message = queue.popleft()
                queue.extend(verifiers[destination].on_message(message))

        def send_all(outgoing, queue):
            for destination, message in outgoing:
                queue.append((destination, message))

        queue = deque()
        for verifier in verifiers.values():
            send_all(verifier.install_plan("p", plan), queue)
        pump(queue)
        converged = canonical(
            v
            for verifier in verifiers.values()
            for v in verifier.root_verdicts("p")
        )
        assert all(holds for (_, _, holds) in converged)

        # The A<->W session dies: both ends withdraw the peer's state.
        dead_link.update({("A", "W"), ("W", "A")})
        queue = deque()
        send_all(verifiers["A"].on_peer_down("W"), queue)
        send_all(verifiers["W"].on_peer_down("A"), queue)
        pump(queue)
        degraded = canonical(
            v
            for verifier in verifiers.values()
            for v in verifier.root_verdicts("p")
        )
        assert degraded != converged

        # Reconnect: each side re-OPENs; the full refresh reconverges.
        queue = deque()
        send_all(
            verifiers["W"].on_message(OpenMessage(plan_id="p", device="A")),
            queue,
        )
        send_all(
            verifiers["A"].on_message(OpenMessage(plan_id="p", device="W")),
            queue,
        )
        pump(queue)
        recovered = canonical(
            v
            for verifier in verifiers.values()
            for v in verifier.root_verdicts("p")
        )
        assert recovered == converged


class TestRuntimeBackend:
    """Transport-level: the same loss/recovery through real TCP."""

    def test_forced_drop_reconverges_to_prior_verdicts(
        self, run, fast_options, scenario, dst_factory
    ):
        topology, fibs, plan = scenario

        async def drive():
            cluster = RuntimeCluster(
                topology, fibs, dst_factory, **fast_options
            )
            await cluster.start()
            try:
                await cluster.install_plan("p", plan)
                converged = canonical(cluster.verdicts("p"))
                assert cluster.holds("p")

                peer_downs_before = sum(
                    m.peer_down_events.value
                    for m in cluster.metrics.devices.values()
                )
                await cluster.drop_connection("A", "W", hold_down=0.1)
                peer_downs_after = sum(
                    m.peer_down_events.value
                    for m in cluster.metrics.devices.values()
                )
                # Both endpoints detected the loss ...
                assert peer_downs_after >= peer_downs_before + 2
                # ... and the re-OPEN refresh restored the exact state.
                assert canonical(cluster.verdicts("p")) == converged
                assert cluster.holds("p")
            finally:
                await cluster.stop()

        run(drive())

    def test_drop_without_reconnect_stays_degraded(
        self, run, fast_options, scenario, dst_factory
    ):
        topology, fibs, plan = scenario

        async def drive():
            cluster = RuntimeCluster(
                topology, fibs, dst_factory, **fast_options
            )
            await cluster.start()
            try:
                await cluster.install_plan("p", plan)
                assert cluster.holds("p")
                # Suppress redial long enough to observe the degraded
                # state (reconnect=False skips waiting for the session).
                await cluster.drop_connection(
                    "A", "W", hold_down=30.0, reconnect=False
                )
                assert not cluster.hosts["A"].sessions["W"].is_established
                assert not cluster.holds("p")
            finally:
                await cluster.stop()

        run(drive())

    def test_a_stalled_event_loop_declares_no_peer_dead(
        self, run, fast_options, scenario, dst_factory
    ):
        """Every session's two ends share the event loop, so a pause of
        the process longer than the hold time (a long step, a garbage-
        collector pass) also held every keepalive: the process was
        silent, not the peers."""
        topology, fibs, plan = scenario
        hold_time = fast_options["keepalive_interval"] * fast_options[
            "hold_multiplier"
        ]

        async def drive():
            cluster = RuntimeCluster(
                topology, fibs, dst_factory, **fast_options
            )
            await cluster.start()
            try:
                await cluster.install_plan("p", plan)
                converged = canonical(cluster.verdicts("p"))
                time.sleep(3 * hold_time)  # blocks the loop
                await asyncio.sleep(3 * hold_time)
                assert not any(
                    m.peer_down_events.value
                    for m in cluster.metrics.devices.values()
                )
                assert canonical(cluster.verdicts("p")) == converged
            finally:
                await cluster.stop()

        run(drive())
