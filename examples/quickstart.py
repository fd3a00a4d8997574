#!/usr/bin/env python3
"""Quickstart: the paper's Figure 2 walkthrough, end to end.

Builds the 5-device example network, installs its data plane, verifies
the Figure 2b invariant ("packets to 10.0.0.0/23 entering at S must reach
D via a loop-free path through W"), watches it fail because of ECMP, then
applies the §2.2.3 rule update and watches incremental verification flip
the verdict -- all through the public API.

Run:  python examples/quickstart.py
"""

from repro.core import Tulkun
from repro.dataplane import RouteConfig, install_routes
from repro.dataplane.actions import Forward
from repro.dataplane.routes import PRIORITY_ERROR
from repro.packetspace.fields import DSTIP_ONLY_LAYOUT
from repro.packetspace.predicate import PredicateFactory
from repro.topology import paper_example


def main() -> None:
    # 1. The network of Figure 2a: S - A - {B, W} - D.
    tulkun = Tulkun(paper_example(), PredicateFactory(DSTIP_ONLY_LAYOUT))
    print(f"topology: {tulkun.topology}")

    # 2. A data plane: shortest-path routes with ECMP (ANY-type groups).
    fibs = install_routes(tulkun.topology, tulkun.factory, RouteConfig(ecmp="any"))
    deployment = tulkun.deploy(fibs)

    # 3. The Figure 2b invariant, in the specification language.
    invariant = tulkun.parse(
        "(dstIP = 10.0.0.0/23, [S], (exist >= 1, S.*W.*D and loop_free))",
        name="waypoint-via-W",
    )
    print(f"invariant: {invariant}")

    # 4. Distributed verification: the planner builds the DPVNet, ships
    #    per-device counting tasks, and on-device verifiers converge.
    report = deployment.verify(invariant)
    print(f"first verdict:  {report}")
    for verdict in report.failing_regions():
        print(
            f"  failing region at ingress {verdict.ingress}: "
            f"universes deliver {verdict.counts} copies"
        )
    assert not report.holds, "ECMP sends some universes around W"

    # 5. The fix: pin A's next hop to W for this packet space.  Only the
    #    devices whose counts change exchange messages (incremental DPV).
    packets = tulkun.factory.dst_prefix("10.0.0.0/23")
    seconds = deployment.update_rule(
        "A",
        lambda: fibs["A"].insert(
            PRIORITY_ERROR, packets, Forward(["W"]), label="pin-via-W"
        ),
    )
    print(f"incremental verification took {seconds * 1e3:.3f} ms (simulated)")

    report = deployment.reports()[0]
    print(f"second verdict: {report}")
    assert report.holds
    print("OK: the network checked itself.")


if __name__ == "__main__":
    main()
