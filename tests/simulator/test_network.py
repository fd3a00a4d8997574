"""Tests for the simulated network (timing, FIFO channels, wire stats)."""

import inspect

import pytest

from repro.dataplane.actions import Drop, Forward
from repro.dataplane.routes import PRIORITY_ERROR, RouteConfig, install_routes
from repro.dvm.messages import decode_message
from repro.planner import plan_invariant
from repro.simulator.network import DeviceProfile, SimulatedNetwork
from repro.spec import library
from repro.topology.generators import line, paper_example


@pytest.fixture()
def topology():
    return paper_example()


@pytest.fixture()
def network(topology, dst_factory):
    fibs = install_routes(topology, dst_factory, RouteConfig(ecmp="any"))
    return SimulatedNetwork(topology, fibs, dst_factory)


@pytest.fixture()
def plan(topology, dst_factory):
    return plan_invariant(
        library.bounded_reachability(
            dst_factory.dst_prefix("10.0.0.0/23"), "S", "D", 2
        ),
        topology,
    )


class TestVerification:
    def test_install_converges_and_holds(self, network, plan):
        elapsed = network.install_plan("p", plan)
        assert elapsed > 0
        assert network.holds("p")

    def test_incremental_update(self, network, plan, dst_factory):
        network.install_plan("p", plan)
        packets = dst_factory.dst_prefix("10.0.0.0/23")
        elapsed = network.fib_update(
            "A",
            lambda: network.fibs["A"].insert(
                PRIORITY_ERROR, packets, Drop(), label="bh"
            ),
        )
        assert elapsed > 0
        assert not network.holds("p")

    def test_link_failure(self, network, plan):
        network.install_plan("p", plan)
        network.fail_link("B", "D")
        assert not network.holds("p")
        network.recover_link("B", "D")
        assert network.holds("p")

    def test_fail_links_fails_a_whole_scene_in_one_operation(
        self, topology, dst_factory, plan
    ):
        def verdicts_after(fail):
            fibs = install_routes(topology, dst_factory, RouteConfig(ecmp="any"))
            network = SimulatedNetwork(topology, fibs, dst_factory)
            network.install_plan("p", plan)
            convergence = network.stats.families["convergence_seconds"].labels()
            operations = convergence.count
            fail(network)
            return (
                convergence.count - operations,
                sorted(
                    (v.ingress, v.holds, sorted(v.counts.tuples))
                    for v in network.verdicts("p")
                ),
            )

        scene = [("B", "D"), ("W", "D")]
        one_by_one = verdicts_after(
            lambda network: [network.fail_link(a, b) for a, b in scene]
        )
        at_once = verdicts_after(lambda network: network.fail_links(scene))
        assert one_by_one[0] == 2 and at_once[0] == 1
        assert at_once[1] == one_by_one[1]
        assert not any(holds for _, holds, _ in at_once[1])

    def test_strict_wire_round_trip(self, topology, dst_factory, plan):
        fibs = install_routes(topology, dst_factory, RouteConfig(ecmp="any"))
        network = SimulatedNetwork(
            topology, fibs, dst_factory, strict_wire=True
        )
        network.install_plan("p", plan)
        assert network.holds("p")
        assert network.stats.bytes > 0

    def test_strict_wire_decodes_every_frame_with_no_knob_to_skip_it(
        self, topology, dst_factory, plan, monkeypatch
    ):
        """``count_wire_bytes=False`` used to switch the ``strict_wire``
        round trip off silently (the decode sat under the byte-counting
        branch).  The knob is gone: every frame is encoded, and a strict
        network hands each receiver the decoded copy."""
        from repro.simulator import network as module

        assert "count_wire_bytes" not in inspect.signature(
            SimulatedNetwork
        ).parameters
        decoded = []

        def spy(payload, factory):
            decoded.append(payload)
            return decode_message(payload, factory)

        monkeypatch.setattr(module, "decode_message", spy)
        fibs = install_routes(topology, dst_factory, RouteConfig(ecmp="any"))
        network = SimulatedNetwork(
            topology, fibs, dst_factory, strict_wire=True
        )
        network.install_plan("p", plan)
        assert network.holds("p")
        assert len(decoded) == network.stats.messages > 0
        assert sum(map(len, decoded)) == network.stats.bytes


class TestTiming:
    def test_propagation_dominates_long_chains(self, dst_factory):
        """On a line with big latencies, convergence time is at least
        the end-to-end propagation delay."""
        chain = line(5, latency=0.01)
        chain.attach_prefix("d4", "10.0.0.0/24")
        fibs = install_routes(chain, dst_factory)
        network = SimulatedNetwork(chain, fibs, dst_factory)
        plan = plan_invariant(
            library.reachability(dst_factory.dst_prefix("10.0.0.0/24"), "d0", "d4"),
            chain,
        )
        elapsed = network.install_plan("p", plan)
        # counts travel d4 -> d0: 4 hops x 10 ms
        assert elapsed >= 0.04

    def test_cpu_scale_slows_processing(self, topology, dst_factory, plan):
        def run(scale):
            fibs = install_routes(topology, dst_factory, RouteConfig(ecmp="any"))
            network = SimulatedNetwork(
                topology, fibs, dst_factory, profile=DeviceProfile("slow", scale)
            )
            return network.install_plan("p", plan)

        fast = run(1.0)
        slow = run(100.0)
        assert slow > fast

    def test_message_stats_accumulate(self, network, plan):
        network.install_plan("p", plan)
        assert network.stats.messages > 0
        assert network.stats.bytes > 0
        processing = network.stats.families["verifier_processing_seconds"]
        assert sum(child.count for child in processing.children()) > 0

    def test_failed_link_drops_messages(self, network, plan):
        network.install_plan("p", plan)
        before = network.stats.messages
        network.fail_link("W", "D")
        # messages over (W, D) were suppressed, others flowed
        assert network.stats.messages >= before

    def test_addressing_non_neighbor_rejected(self, network):
        from repro.dvm.messages import OpenMessage

        with pytest.raises(RuntimeError):
            network._transmit("S", "D", OpenMessage(plan_id="p", device="S"), 0.0)
