"""Unit tests for error injection."""

from repro.dataplane.actions import Drop, Forward
from repro.dataplane.errors import inject_blackhole, inject_waypoint_bypass
from repro.dataplane.routes import PRIORITY_ERROR, install_routes
from repro.topology.generators import paper_example


def inject_loop(fibs, device_a, device_b, packets, label=""):
    """Make adjacent ``device_a`` and ``device_b`` bounce ``packets`` to
    each other."""
    return tuple(
        fibs[here].insert(
            PRIORITY_ERROR, packets, Forward([there]),
            label=label or "injected-loop",
        )
        for here, there in ((device_a, device_b), (device_b, device_a))
    )


def test_blackhole_overrides_forwarding(dst_factory):
    topology = paper_example()
    fibs = install_routes(topology, dst_factory)
    packets = dst_factory.dst_prefix("10.0.0.0/24")
    inject_blackhole(fibs, "A", packets)
    assert fibs["A"].lookup(packets) == Drop()


def test_loop_bounces_between_pair(dst_factory):
    topology = paper_example()
    fibs = install_routes(topology, dst_factory)
    packets = dst_factory.dst_prefix("10.0.0.0/24")
    inject_loop(fibs, "B", "W", packets)
    assert fibs["B"].lookup(packets) == Forward(["W"])
    assert fibs["W"].lookup(packets) == Forward(["B"])


def test_bypass_redirects(dst_factory):
    topology = paper_example()
    fibs = install_routes(topology, dst_factory)
    packets = dst_factory.dst_prefix("10.0.0.0/24")
    inject_waypoint_bypass(fibs, "A", "B", packets)
    assert fibs["A"].lookup(packets) == Forward(["B"])


def test_injection_is_scoped(dst_factory):
    topology = paper_example()
    fibs = install_routes(topology, dst_factory)
    hole = dst_factory.dst_prefix("10.0.0.0/25")
    rest = dst_factory.dst_prefix("10.0.0.128/25")
    inject_blackhole(fibs, "A", hole)
    assert fibs["A"].lookup(hole) == Drop()
    assert fibs["A"].lookup(rest) != Drop()
