#!/usr/bin/env python3
"""Compound invariants: multicast, anycast, and same-destination
disjunctions (§4.3), including the false positives the naive
constructions would raise.

Run:  python examples/anycast_multicast.py
"""

from repro.core import Tulkun
from repro.dataplane.actions import ALL, ANY, Deliver, Forward
from repro.dataplane.fib import Fib
from repro.packetspace.fields import DSTIP_ONLY_LAYOUT
from repro.packetspace.predicate import PredicateFactory
from repro.spec import library
from repro.topology.graph import Topology


def build_topology() -> Topology:
    """Figure 5a's shape, extended: S fans out to replica sites D and E."""
    topology = Topology("anycast-demo")
    topology.add_link("S", "A", 1e-5)
    topology.add_link("A", "D", 1e-5)
    topology.add_link("A", "E", 1e-5)
    topology.attach_prefix("D", "10.9.0.0/24")  # the anycast prefix
    topology.attach_prefix("E", "10.9.0.0/24")  # ...served at both sites
    return topology


def build_fibs(tulkun, group_kind):
    packets = tulkun.factory.dst_prefix("10.9.0.0/24")
    fibs = {device: Fib(device) for device in tulkun.topology.devices}
    fibs["S"].insert(100, packets, Forward(["A"]), label="10.9.0.0/24")
    fibs["A"].insert(
        100, packets, Forward(["D", "E"], kind=group_kind), label="10.9.0.0/24"
    )
    fibs["D"].insert(100, packets, Deliver(), label="10.9.0.0/24")
    fibs["E"].insert(100, packets, Deliver(), label="10.9.0.0/24")
    return fibs, packets


def main() -> None:
    tulkun = Tulkun(build_topology(), PredicateFactory(DSTIP_ONLY_LAYOUT))

    # --- anycast: exactly one replica must receive each packet --------
    fibs, packets = build_fibs(tulkun, ANY)
    deployment = tulkun.deploy(fibs)
    anycast = library.anycast(packets, "S", "D", "E")
    report = deployment.verify(anycast)
    print(f"anycast with ANY-type ECMP: {report}")
    assert report.holds
    # Note §4.3: two separate DPVNets cross-multiplied would report the
    # phantom universes (0,0) and (1,1) here.  The single labeled DPVNet
    # counts per-universe tuples, so the verdict is sound.

    # --- the same data plane violates multicast -------------------------
    multicast = library.multicast(packets, "S", ["D", "E"])
    report = deployment.verify(multicast)
    print(f"multicast with ANY-type ECMP: {report}")
    assert not report.holds

    # --- replication (ALL) flips both verdicts -------------------------
    fibs, packets = build_fibs(tulkun, ALL)
    deployment = tulkun.deploy(fibs)
    report_any = deployment.verify(library.anycast(packets, "S", "D", "E"))
    report_multi = deployment.verify(library.multicast(packets, "S", ["D", "E"]))
    print(f"anycast with ALL-type replication: {report_any}")
    print(f"multicast with ALL-type replication: {report_multi}")
    assert not report_any.holds
    assert report_multi.holds

    print("OK: compound invariants verified without phantom errors.")


if __name__ == "__main__":
    main()
