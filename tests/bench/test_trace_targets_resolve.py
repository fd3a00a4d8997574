"""The standing benchmark finds its layers by patching dotted names
(``benchmarks/perf/trace.py``); a target that no longer resolves makes
its metrics read ``null`` without failing anything there.  Resolving
every name here, with the benchmark's own resolver, fails the rename in
the PR that makes it.
"""

import importlib.util
import inspect
import os
import sys

import pytest

TRACE_PY = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks", "perf", "trace.py"
)


def load_trace():
    # By path and under its own name: ``trace`` is a stdlib module.
    name = "perf_trace_targets"
    spec = importlib.util.spec_from_file_location(name, TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


TRACE = load_trace()


def test_there_are_targets_for_every_layer():
    layers = {target.group.split(".")[0] for target in TRACE.TARGETS}
    assert {"bdd", "packetspace", "dataplane", "dvm", "simulator", "runtime"} <= layers


@pytest.mark.parametrize("target", TRACE.TARGETS, ids=lambda target: target.dotted)
def test_target_resolves_to_a_plain_function(target):
    _, attribute, function = TRACE._resolve(target.dotted)
    assert attribute == target.dotted.rsplit(".", 1)[1]
    assert inspect.isfunction(function), f"{target.dotted}: not a plain function"


def test_the_planner_layer_counts_every_invariant_and_holds_the_builds():
    """``planner.plan`` wraps ``plan_invariant``: a batch must still call
    it once per invariant, with each DPVNet built inside one of its
    spans, or the traced pass would read the planner near zero."""
    from repro.bench.workloads import build_workload

    planner = tuple(t for t in TRACE.TARGETS if t.group == "planner.plan")
    build = TRACE.Target("planner.build", "repro.planner.dpvnet.build_dpvnet")
    tracer = TRACE.Tracer(planner + (build,))
    with tracer:
        build_workload("INet2", prefixes_per_device=4)
    assert not tracer.unresolved
    calls, self_s = tracer.group_totals()["planner.plan"]
    assert calls == 36
    assert self_s > 0
    plan_spans = {span[0] for span in tracer.spans if span[2] == "plan_invariant"}
    builds = [span for span in tracer.spans if span[2] == "build_dpvnet"]
    assert len(builds) == 9
    assert all(span[1] in plan_spans for span in builds)
