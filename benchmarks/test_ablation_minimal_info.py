"""Ablation: minimal counting information (Prop. 1) vs full count sets.

On a chain of diamonds with ANY-type ECMP, the number of distinct
universes grows exponentially with depth; minimal-info propagation sends
one scalar per region while full propagation ships whole count sets.  We
measure DVM message bytes and convergence time for both.
"""

import pytest
from conftest import write_table

from repro.bench.reporting import format_seconds, print_table
from repro.core import Tulkun
from repro.dataplane.actions import ALL, ANY, Deliver, Forward
from repro.dataplane.fib import Fib
from repro.packetspace.fields import DSTIP_ONLY_LAYOUT
from repro.packetspace.predicate import PredicateFactory
from repro.planner import plan_invariant
from repro.spec import library
from repro.topology.generators import chained_diamond

DEPTH = 5

_RESULTS = {}


def build(mode):
    """mode: 'minimal' (Prop. 1) or 'full' (ablated).

    The data plane is crafted so count sets double per diamond: each
    junction replicates (ALL) into both branches; the lower branch ECMPs
    (ANY) between the next junction and a next hop outside the DPVNet
    (losing the copy in that universe).  The count set at depth k has
    2^k distinct universes -- exactly the "chained diamond" explosion
    §4.2 motivates the minimal counting information with.
    """
    factory = PredicateFactory(DSTIP_ONLY_LAYOUT)
    topology = chained_diamond(DEPTH)
    fibs = {device: Fib(device) for device in topology.devices}
    packets = factory.dst_prefix("10.0.0.0/24")
    for index in range(DEPTH):
        fibs[f"j{index}"].insert(
            100, packets, Forward([f"u{index}", f"l{index}"], kind=ALL)
        )
        fibs[f"u{index}"].insert(100, packets, Forward([f"j{index + 1}"]))
        # the "void" next hop models an interface leaving the DPVNet
        fibs[f"l{index}"].insert(
            100, packets, Forward([f"j{index + 1}", "void"], kind=ANY)
        )
    fibs[f"j{DEPTH}"].insert(100, packets, Deliver())
    invariant = library.reachability(packets, "j0", f"j{DEPTH}")
    plan = plan_invariant(invariant, topology)
    if mode == "full":
        plan.mode = "full"  # disable the Prop. 1 projection
    report = Tulkun(topology, factory).deploy(fibs).install({"abl": plan})[0]
    return {
        "mode": mode,
        "seconds": report.verification_seconds,
        "messages": report.message_count,
        "bytes": report.message_bytes,
        "holds": report.holds,
    }


def run_all():
    if not _RESULTS:
        for mode in ("minimal", "full"):
            _RESULTS[mode] = build(mode)
    return _RESULTS


@pytest.mark.parametrize("mode", ["minimal", "full"])
def test_modes_verify(mode, benchmark):
    result = benchmark.pedantic(lambda: build(mode), rounds=1, iterations=1)
    assert result["holds"]  # at least one copy always survives


def test_ablation_report(out_dir, benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        {
            "mode": result["mode"],
            "time": format_seconds(result["seconds"]),
            "messages": result["messages"],
            "bytes": result["bytes"],
        }
        for result in results.values()
    ]
    text = print_table(
        f"Ablation: Prop. 1 minimal info vs full count sets "
        f"({DEPTH}-diamond chain, ANY ECMP)",
        rows,
    )
    write_table(out_dir, "ablation_minimal_info.txt", text)


def test_shape_minimal_sends_fewer_bytes(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    results = run_all()
    assert results["minimal"]["bytes"] < results["full"]["bytes"]
