#!/usr/bin/env python3
"""WAN scenario: fault-tolerant verification without the planner (§6).

Builds the Internet2-like WAN, plans a reachability invariant tolerant to
all single-link failures (`any_one`), and then fails links at runtime:

* planned scenes are absorbed by the on-device verifiers alone --
  link-state flooding synchronizes the failure, every device switches to
  the scene's DPVNet labels and recounts; the planner is never contacted;
* an unplanned scene (a double failure) is detected: the report names
  the devices on it and the failed links, and never reads ``holds``.

Run:  python examples/wan_fault_tolerance.py
"""

from repro.core import Tulkun
from repro.dataplane import RouteConfig, install_routes
from repro.packetspace.fields import DSTIP_ONLY_LAYOUT
from repro.packetspace.predicate import PredicateFactory
from repro.topology import load_dataset


def main() -> None:
    topology = load_dataset("INet2")
    tulkun = Tulkun(topology, PredicateFactory(DSTIP_ONLY_LAYOUT))
    fibs = install_routes(tulkun.topology, tulkun.factory, RouteConfig(ecmp="single"))
    deployment = tulkun.deploy(fibs)

    source = topology.devices[0]
    destination = topology.devices[-1]
    cidr = topology.external_prefixes(destination)[0]
    print(f"{topology}: verifying {source} -> {destination} ({cidr})")

    invariant = tulkun.parse(
        f"(dstIP = {cidr}, [{source}], "
        f"(exist >= 1, {source}.*{destination} and loop_free, "
        f"(<= shortest+2)), any_one)",
        name="ft-reachability",
    )
    plan = tulkun.plan(invariant)
    print(
        f"fault-tolerant DPVNet: {plan.dpvnet.num_nodes} nodes covering "
        f"{len(plan.scenes)} scenes (intact + {len(plan.scenes) - 1} failures)"
    )
    report = deployment.verify_plan(plan)
    print(f"intact topology: {report}")

    # Fail a link on the current path: a *planned* scene.  The data
    # plane is deterministic single-path routing, so reachability now
    # depends on whether the failed link was in use.
    used_path = plan.dpvnet.paths(label=(0, 0), ingress=source)[0]
    link = (used_path[0], used_path[1])
    print(f"failing link {link} (planned scene)...")
    deployment.fail_link(*link)
    report = deployment.reports()[0]
    print(f"after failure: {report}")
    assert not report.unplanned  # absorbed on-device, no planner involved

    # Now an unplanned double failure: every device that sees it says so.
    deployment.recover_link(*link)
    links = [l.endpoints for l in topology.links]
    pair = [links[0], links[1]]
    print(f"failing {pair} (UNPLANNED double failure)...")
    for a, b in pair:
        deployment.fail_link(a, b)
    report = deployment.reports()[0]
    print(f"after failure: {report}")
    assert report.unplanned and not report.holds
    print("OK: planned scenes handled on-device, unplanned ones reported.")


if __name__ == "__main__":
    main()
