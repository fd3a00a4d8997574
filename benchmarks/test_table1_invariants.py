"""Table 1: planning + distributed verification of every invariant
family on the example network, with per-family timing."""

import pytest
from conftest import write_table

from repro.bench.reporting import format_seconds, print_table
from repro.core import Tulkun
from repro.dataplane.routes import RouteConfig, install_routes
from repro.packetspace.fields import DSTIP_ONLY_LAYOUT
from repro.packetspace.predicate import PredicateFactory
from repro.planner import plan_invariant
from repro.spec import library
from repro.topology.generators import paper_example

FAMILIES = (
    "reachability",
    "isolation",
    "waypoint",
    "bounded",
    "limited-length",
    "different-ingress",
    "all-shortest-path",
    "non-redundant",
    "multicast",
    "anycast",
    "loop-free",
)


def make_invariant(family, factory):
    packets = factory.dst_prefix("10.0.0.0/24")
    others = factory.dst_prefix("10.0.2.0/24")
    if family == "reachability":
        return library.reachability(packets, "S", "D")
    if family == "isolation":
        # traffic to D's prefix entering at B goes straight to D and
        # never transits S: isolation from S holds.
        return library.isolation(packets, "B", "S"), True
    if family == "waypoint":
        return library.waypoint_reachability(packets, "S", "W", "D")
    if family == "bounded":
        return library.bounded_reachability(packets, "S", "D", 2)
    if family == "limited-length":
        return library.limited_length_reachability(packets, "S", "D", 4)
    if family == "different-ingress":
        return library.different_ingress_same_reachability(
            packets, ["S", "B"], "D"
        )
    if family == "all-shortest-path":
        return library.all_shortest_path_availability(packets, "S", "D")
    if family == "non-redundant":
        return library.non_redundant_reachability(packets, "S", "D")
    if family == "multicast":
        return library.multicast(packets, "S", ["B", "D"]), False
    if family == "anycast":
        # only D delivers the prefix: exactly-one-destination holds.
        return library.anycast(packets, "S", "B", "D"), True
    if family == "loop-free":
        return library.loop_free_reachability(packets, "S", "D")
    raise ValueError(family)


def run_family(family):
    factory = PredicateFactory(DSTIP_ONLY_LAYOUT)
    topology = paper_example()
    fibs = install_routes(topology, factory, RouteConfig(ecmp="single", seed=3))
    made = make_invariant(family, factory)
    expected = None
    if isinstance(made, tuple):
        invariant, expected = made
    else:
        invariant = made
    import time

    start = time.perf_counter()
    plan = plan_invariant(invariant, topology)
    plan_seconds = time.perf_counter() - start
    report = Tulkun(topology, factory).deploy(fibs).install({"t1": plan})[0]
    verify_seconds = report.verification_seconds
    return plan_seconds, verify_seconds, report.holds, expected, plan


@pytest.mark.parametrize("family", FAMILIES)
def test_family_verifies(family, benchmark):
    plan_seconds, verify_seconds, holds, expected, plan = benchmark.pedantic(
        lambda: run_family(family), rounds=1, iterations=1
    )
    assert plan.dpvnet.num_nodes > 0
    if expected is not None:
        assert holds is expected


def test_table1_report(out_dir, benchmark):
    def build_rows():
        rows = []
        for family in FAMILIES:
            plan_seconds, verify_seconds, holds, _, plan = run_family(family)
            rows.append(
                {
                    "invariant": family,
                    "mode": plan.mode,
                    "nodes": plan.dpvnet.num_nodes,
                    "plan": format_seconds(plan_seconds),
                    "verify": format_seconds(verify_seconds),
                    "holds": holds,
                }
            )
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    text = print_table("Table 1: invariant families on the example network", rows)
    write_table(out_dir, "table1_invariants.txt", text)
    assert len(rows) == len(FAMILIES)
