#!/usr/bin/env python3
"""§9.1's five functionality demos, each run with a correct and an
erroneous data plane ("The network always computes the right results").

Demo 1: loop-free waypoint reachability
Demo 2: loop-free multicast
Demo 3: loop-free anycast
Demo 4: different-ingress consistent reachability
Demo 5: all-shortest-path availability (RCDC local contracts)

Run:  python examples/functionality_demos.py
"""

from repro.core import Tulkun
from repro.dataplane import RouteConfig, install_routes
from repro.dataplane.actions import Deliver, Forward
from repro.dataplane.errors import inject_blackhole, inject_waypoint_bypass
from repro.dataplane.routes import PRIORITY_ERROR
from repro.packetspace.fields import DSTIP_ONLY_LAYOUT
from repro.packetspace.predicate import PredicateFactory
from repro.spec import library
from repro.topology.graph import Topology


def build_topology() -> Topology:
    topology = Topology("demo-testbed")
    for a, b in [
        ("S", "A"), ("A", "B"), ("A", "W"), ("B", "W"), ("B", "D"), ("W", "D"),
    ]:
        topology.add_link(a, b, 10e-6)
    topology.attach_prefix("D", "10.0.0.0/24")
    topology.attach_prefix("B", "10.0.1.0/24")
    topology.attach_prefix("W", "10.0.2.0/24")
    topology.attach_prefix("S", "10.0.3.0/24")
    return topology


def show(demo: str, correct: bool, erroneous: bool) -> None:
    status = "PASS" if (correct and not erroneous) else "FAIL"
    print(
        f"[{status}] {demo}: correct plane holds={correct}, "
        f"erroneous plane holds={erroneous}"
    )
    assert correct and not erroneous


def main() -> None:
    tulkun = Tulkun(build_topology(), PredicateFactory(DSTIP_ONLY_LAYOUT))
    factory = tulkun.factory
    packets = factory.dst_prefix("10.0.0.0/24")

    def routed():
        return install_routes(tulkun.topology, factory, RouteConfig(ecmp="any"))

    # Demo 1: waypoint reachability ------------------------------------
    fibs = routed()
    fibs["A"].insert(PRIORITY_ERROR, packets, Forward(["W"]))
    good = tulkun.deploy(fibs).verify(
        library.waypoint_reachability(packets, "S", "W", "D")
    )
    fibs = routed()
    inject_waypoint_bypass(fibs, "A", "B", packets, label="10.0.0.0/24")
    bad = tulkun.deploy(fibs).verify(
        library.waypoint_reachability(packets, "S", "W", "D")
    )
    show("demo 1 waypoint", good.holds, bad.holds)

    # Demo 2: multicast ---------------------------------------------------
    space = factory.dst_prefix("10.0.8.0/24")
    fibs = routed()
    fibs["S"].insert(PRIORITY_ERROR, space, Forward(["A"]))
    fibs["A"].insert(PRIORITY_ERROR, space, Forward(["B", "W"], kind="ALL"))
    fibs["B"].insert(PRIORITY_ERROR, space, Deliver())
    fibs["W"].insert(PRIORITY_ERROR, space, Deliver())
    good = tulkun.deploy(fibs).verify(library.multicast(space, "S", ["B", "W"]))
    fibs = routed()
    fibs["S"].insert(PRIORITY_ERROR, space, Forward(["A"]))
    fibs["A"].insert(PRIORITY_ERROR, space, Forward(["B", "W"], kind="ANY"))
    fibs["B"].insert(PRIORITY_ERROR, space, Deliver())
    fibs["W"].insert(PRIORITY_ERROR, space, Deliver())
    bad = tulkun.deploy(fibs).verify(library.multicast(space, "S", ["B", "W"]))
    show("demo 2 multicast", good.holds, bad.holds)

    # Demo 3: anycast -----------------------------------------------------
    fibs = routed()
    fibs["S"].insert(PRIORITY_ERROR, space, Forward(["A"]))
    fibs["A"].insert(PRIORITY_ERROR, space, Forward(["B", "W"], kind="ANY"))
    fibs["B"].insert(PRIORITY_ERROR, space, Deliver())
    fibs["W"].insert(PRIORITY_ERROR, space, Deliver())
    good = tulkun.deploy(fibs).verify(library.anycast(space, "S", "B", "W"))
    fibs = routed()
    fibs["S"].insert(PRIORITY_ERROR, space, Forward(["A"]))
    fibs["A"].insert(PRIORITY_ERROR, space, Forward(["B", "W"], kind="ALL"))
    fibs["B"].insert(PRIORITY_ERROR, space, Deliver())
    fibs["W"].insert(PRIORITY_ERROR, space, Deliver())
    bad = tulkun.deploy(fibs).verify(library.anycast(space, "S", "B", "W"))
    show("demo 3 anycast", good.holds, bad.holds)

    # Demo 4: different-ingress consistency ------------------------------
    invariant = library.different_ingress_same_reachability(
        packets, ["S", "B"], "D"
    )
    good = tulkun.deploy(routed()).verify(invariant)
    fibs = routed()
    inject_blackhole(fibs, "B", packets, label="10.0.0.0/24")
    bad = tulkun.deploy(fibs).verify(invariant)
    show("demo 4 different-ingress", good.holds, bad.holds)

    # Demo 5: all-shortest-path availability -----------------------------
    invariant = library.all_shortest_path_availability(packets, "S", "D")
    good = tulkun.deploy(routed()).verify(invariant)
    fibs = routed()
    fibs["A"].insert(PRIORITY_ERROR, packets, Forward(["W"]), label="pin")
    bad = tulkun.deploy(fibs).verify(invariant)
    show("demo 5 all-shortest-path", good.holds, bad.holds)

    print("all five demos behave as in §9.1.")


if __name__ == "__main__":
    main()
