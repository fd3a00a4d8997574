#!/usr/bin/env python3
"""Data center scenario: all-ToR-pair shortest-path reachability on a
fattree, plus RCDC-style local contracts.

Mirrors the paper's DC evaluation (§9.3): a k-ary fattree with one /24
per rack, ECMP everywhere.  Verifies (1) every ToR pair's shortest-path
reachability via distributed counting and (2) the all-shortest-path
availability invariant via local checks with *empty* counting information
(Prop. 1's equal case -- Azure RCDC as a special case of Tulkun).  Then
breaks one aggregation switch's ECMP group and shows both invariants
catching it.

Run:  python examples/datacenter_fattree.py [arity]
"""

import sys

from repro.core import Tulkun
from repro.dataplane import RouteConfig, install_routes
from repro.dataplane.actions import Forward
from repro.dataplane.routes import PRIORITY_ERROR
from repro.packetspace.fields import DSTIP_ONLY_LAYOUT
from repro.packetspace.predicate import PredicateFactory
from repro.spec import library
from repro.topology import fattree


def main(arity: int = 4) -> None:
    topology = fattree(arity)
    tulkun = Tulkun(topology, PredicateFactory(DSTIP_ONLY_LAYOUT))
    fibs = install_routes(tulkun.topology, tulkun.factory, RouteConfig(ecmp="any"))
    deployment = tulkun.deploy(fibs)
    tors = topology.devices_with_prefixes()
    print(f"{topology}: {len(tors)} ToRs, diameter {topology.diameter_hops()}")

    # 1. ToR-pair shortest-path reachability (a sample of pairs).
    source, destination = tors[0], tors[-1]
    cidr = topology.external_prefixes(destination)[0]
    packets = tulkun.factory.dst_prefix(cidr)
    invariant = library.bounded_reachability(
        packets, source, destination, max_extra_hops=0
    )
    report = deployment.verify(invariant)
    print(f"shortest-path reachability {source} -> {destination}: {report}")
    assert report.holds

    # 2. RCDC local contracts: all shortest paths must be programmed.
    #    No counting messages flow -- each device checks its own FIB
    #    against its DPVNet neighbors (minimal counting information = ∅).
    rcdc = library.all_shortest_path_availability(packets, source, destination)
    report = deployment.verify(rcdc)
    print(f"all-shortest-path availability: {report}")
    assert report.holds

    # 3. Break one aggregation switch in the *source* pod: shrink its
    #    uplink ECMP group to a single core.  One shortest path per
    #    universe survives (reachability holds) but not all of them are
    #    programmed any more (availability violated).
    aggregation = "agg_0_0"
    cores = [
        peer
        for peer in topology.neighbors(aggregation)
        if peer.startswith("core_")
    ]
    fibs_update = lambda: fibs[aggregation].insert(
        PRIORITY_ERROR, packets, Forward(cores[:1]), label="degraded-ecmp"
    )
    deployment.update_rule(aggregation, fibs_update)

    reports = deployment.reports()
    reach_report = [r for r in reports if r.invariant.name != rcdc.name][0]
    rcdc_report = [r for r in reports if r.invariant.name == rcdc.name][0]
    print(f"after degrading {aggregation}:")
    print(f"  reachability: {'holds' if reach_report.holds else 'VIOLATED'}")
    print(f"  RCDC availability: {'holds' if rcdc_report.holds else 'VIOLATED'}")
    for violation in rcdc_report.violations[:3]:
        print(f"    {violation.device}/{violation.node_id}: {violation.reason}")
    # reachability still holds (one path survives); availability does not
    assert reach_report.holds
    assert not rcdc_report.holds
    print("OK: local contracts caught the degraded ECMP group.")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4)
