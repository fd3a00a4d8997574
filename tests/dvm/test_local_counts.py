"""Per-device counting results (§7's rationale for backpropagation)."""

import pytest

from repro.core import Tulkun
from repro.dataplane.routes import RouteConfig, install_routes
from repro.packetspace.fields import DSTIP_ONLY_LAYOUT
from repro.packetspace.predicate import PredicateFactory
from repro.topology.generators import paper_example


def local_counts(verifier, plan_id):
    """``[(node_id, predicate, counts)]``: the device's own counting
    results for one plan, bottom-up (§7's rationale for counting
    backwards: every device knows how many copies it can deliver)."""
    context = verifier._contexts.get(plan_id)
    if context is None:
        return []
    return [
        (state.task.node_id, predicate, counts)
        for state in context.bottom_up
        for predicate, counts in state.loc.lookup(state.interest)
    ]


@pytest.fixture()
def deployment_and_plan():
    tulkun = Tulkun(paper_example(), PredicateFactory(DSTIP_ONLY_LAYOUT))
    fibs = install_routes(tulkun.topology, tulkun.factory, RouteConfig(ecmp="any"))
    deployment = tulkun.deploy(fibs)
    invariant = tulkun.parse(
        "(dstIP = 10.0.0.0/23, [S], (exist >= 1, S.*D and loop_free, "
        "(<= shortest+2)))",
        name="reach",
    )
    deployment.verify(invariant)
    plan_id = next(iter(deployment.plans))
    return tulkun, deployment, plan_id


def test_every_participating_device_knows_its_count(deployment_and_plan):
    tulkun, deployment, plan_id = deployment_and_plan
    plan = deployment.plans[plan_id]
    for device in plan.devices():
        counts = local_counts(deployment.backend.verifiers[device], plan_id)
        assert counts, device
        for node_id, predicate, count_set in counts:
            assert not predicate.is_empty
            assert count_set.dim == 1


def test_intermediate_device_count_reflects_reachability(deployment_and_plan):
    """A (the hop before the ECMP split) can read that at least one copy
    reaches D from itself -- the input a rerouting service needs."""
    tulkun, deployment, plan_id = deployment_and_plan
    counts = local_counts(deployment.backend.verifiers["A"], plan_id)
    packets = tulkun.factory.dst_prefix("10.0.0.0/23")
    covered = tulkun.factory.empty()
    for _, predicate, count_set in counts:
        covered = covered | predicate
        assert min(count_set.scalars()) >= 1
    assert packets.is_subset_of(covered)


def test_unknown_plan_returns_empty(deployment_and_plan):
    _, deployment, _ = deployment_and_plan
    assert local_counts(deployment.backend.verifiers["A"], "ghost") == []
