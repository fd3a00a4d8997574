"""§1's early-detection scenario: a centralized verifier that misses a
device's updates cannot see the error they carry, while Tulkun's
on-device verifiers read their own data planes by construction."""

import pytest

from repro.dataplane.actions import Drop
from repro.dataplane.routes import PRIORITY_ERROR, RouteConfig, install_routes
from repro.planner import plan_invariant
from repro.spec import library
from repro.topology.generators import paper_example


@pytest.fixture()
def setting(dst_factory):
    topology = paper_example()
    fibs = install_routes(topology, dst_factory, RouteConfig(ecmp="any"))
    packets = dst_factory.dst_prefix("10.0.0.0/23")
    plans = [
        (
            "reach",
            plan_invariant(
                library.bounded_reachability(packets, "S", "D", 2), topology
            ),
        )
    ]
    return topology, fibs, packets, plans


def test_tulkun_immune_to_missing_collection(dst_factory, setting):
    """Tulkun has no collection step: the on-device verifier reads its
    own FIB, so a blackhole injected at A is detected."""
    topology, fibs, packets, plans = setting
    from repro.simulator.network import SimulatedNetwork

    network = SimulatedNetwork(topology, fibs, dst_factory)
    network.install_plan("p", plans[0][1])
    assert network.holds("p")
    network.fib_update(
        "A",
        lambda: fibs["A"].insert(
            PRIORITY_ERROR, packets, Drop(), label="10.0.0.0/23"
        ),
    )
    assert not network.holds("p")

