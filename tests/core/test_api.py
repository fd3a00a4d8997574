"""Tests for the Tulkun facade."""

import pytest

from repro.core import Tulkun, TulkunError
from repro.core.errors import InconsistentInvariantError
from repro.dataplane.actions import Drop, Forward
from repro.dataplane.routes import PRIORITY_ERROR, RouteConfig, install_routes
from repro.packetspace.fields import DSTIP_ONLY_LAYOUT
from repro.packetspace.predicate import PredicateFactory
from repro.topology.generators import paper_example
from tests.runtime.test_deployment import FAST


@pytest.fixture()
def tulkun():
    return Tulkun(paper_example(), PredicateFactory(DSTIP_ONLY_LAYOUT))


def deploy(tulkun, **options):
    fibs = install_routes(tulkun.topology, tulkun.factory, RouteConfig(ecmp="any"))
    return tulkun.deploy(fibs, **options)


def verdict_function(report):
    """``{(ingress, holds, counts): wire form of where}``."""
    merged = {}
    for verdict in report.verdicts:
        key = (verdict.ingress, verdict.holds, verdict.counts)
        held = merged.get(key)
        merged[key] = (
            verdict.predicate if held is None else held | verdict.predicate
        )
    return {key: predicate.to_bytes() for key, predicate in merged.items()}


def violations(report):
    return sorted(
        (v.device, v.node_id, v.reason, v.predicate.to_bytes())
        for v in report.violations
    )


class TestSpecification:
    def test_parse_round_trip(self, tulkun):
        invariant = tulkun.parse(
            "(dstIP = 10.0.0.0/23, [S], (exist >= 1, S.*D and loop_free))",
            name="reach",
        )
        assert invariant.name == "reach"
        assert invariant.ingress_set == ("S",)

    def test_consistency_check_rejects_unowned_space(self, tulkun):
        with pytest.raises(InconsistentInvariantError):
            tulkun.parse("(dstIP = 99.0.0.0/24, [S], (exist >= 1, S.*D))")

    def test_consistency_check_accepts_star(self, tulkun):
        invariant = tulkun.parse("(*, [S], (exist >= 1, S.*D))")
        assert invariant.packet_space.is_full


class TestDeployment:
    """The facade on the simulator; the subclass below runs every case
    again on the asyncio/TCP runtime."""

    #: ``Tulkun.deploy`` options of the backend under test.
    options = {}

    @pytest.fixture()
    def deployment(self, tulkun):
        with deploy(tulkun, **self.options) as deployment:
            yield deployment

    def test_missing_fibs_rejected(self, tulkun):
        with pytest.raises(TulkunError):
            tulkun.deploy({})

    def test_verify_report(self, tulkun, deployment):
        invariant = tulkun.parse(
            "(dstIP = 10.0.0.0/23, [S], (exist >= 1, S.*D and loop_free, "
            "(<= shortest+2)))",
            name="reach",
        )
        report = deployment.verify(invariant)
        assert report.holds
        assert report.verification_seconds > 0
        assert report.message_count > 0
        assert not report.failing_regions()

    def test_violation_report(self, tulkun, deployment):
        invariant = tulkun.parse(
            "(dstIP = 10.0.0.0/23, [S], (exist >= 1, S.*W.*D and loop_free))",
            name="waypoint",
        )
        report = deployment.verify(invariant)
        assert not report.holds
        assert report.failing_regions()
        assert "VIOLATED" in repr(report)

    def test_incremental_update_and_reverify(self, tulkun, deployment):
        invariant = tulkun.parse(
            "(dstIP = 10.0.0.0/23, [S], (exist >= 1, S.*W.*D and loop_free))",
            name="waypoint",
        )
        assert not deployment.verify(invariant).holds
        fibs = deployment.backend.fibs
        packets = tulkun.factory.dst_prefix("10.0.0.0/23")
        elapsed = deployment.update_rule(
            "A",
            lambda: fibs["A"].insert(PRIORITY_ERROR, packets, Forward(["W"])),
        )
        assert elapsed > 0
        assert all(report.holds for report in deployment.reports())

    def test_fail_and_recover_link(self, tulkun, deployment):
        invariant = tulkun.parse(
            "(dstIP = 10.0.0.0/23, [S], (exist >= 1, S.*D, (<= 4)))",
            name="reach",
        )
        deployment.verify(invariant)
        deployment.fail_link("B", "D")
        assert not all(r.holds for r in deployment.reports())
        deployment.recover_link("B", "D")
        assert all(r.holds for r in deployment.reports())

    def test_multiple_plans_coexist(self, tulkun, deployment):
        reach = tulkun.parse(
            "(dstIP = 10.0.0.0/23, [S], (exist >= 1, S.*D, (<= 4)))", name="r"
        )
        isolation = tulkun.parse(
            "(dstIP = 10.0.2.0/24, [D], (exist == 0, D.*W.*S and loop_free))",
            name="i",
        )
        first = deployment.verify(reach)
        second = deployment.verify(isolation)
        assert first.holds
        # D routes 10.0.2.0/24 toward S via ECMP {B, W}: the W universe
        # traverses the forbidden waypoint -> isolation violated.
        assert not second.holds

    def test_local_mode_report(self, tulkun, deployment):
        invariant = tulkun.parse(
            "(dstIP = 10.0.0.0/24, [S], (equal, (S.*D, (== shortest))))",
            name="rcdc",
        )
        report = deployment.verify(invariant)
        assert report.holds
        assert report.verdicts == []  # local contracts produce no counts

    def test_install_keeps_the_given_ids(self, tulkun, deployment):
        """``install`` puts plans under the caller's ids (a built
        workload's are its invariant names) as one batch."""
        reach = tulkun.parse(
            "(dstIP = 10.0.0.0/23, [S], (exist >= 1, S.*D, (<= 4)))",
            name="reach",
        )
        waypoint = tulkun.parse(
            "(dstIP = 10.0.0.0/23, [S], (exist >= 1, S.*W.*D and loop_free))",
            name="waypoint",
        )
        plans = {"reach": tulkun.plan(reach), "waypoint": tulkun.plan(waypoint)}
        batch = deployment.install(plans)
        assert [report.plan_id for report in batch] == ["reach", "waypoint"]
        assert [report.holds for report in batch] == [True, False]
        assert list(deployment.plans) == ["reach", "waypoint"]
        assert deployment.holds("reach") and not deployment.holds("waypoint")
        assert [r.plan_id for r in deployment.reports()] == list(plans)
        # The first install of a fresh deployment sent every counting
        # frame so far.
        assert deployment.frames_sent() == (
            batch[0].message_count,
            batch[0].message_bytes,
        )
        assert batch[0].message_count > 0

    def test_verify_all_equals_one_at_a_time(self, tulkun, deployment):
        """Invariants that differ only in packet space share a DPVNet and
        install as one group: a counting pair (read through verdicts)
        and a local pair (read through violations); the last has its own
        shape."""
        sources = [
            "(dstIP = 10.0.0.0/24, [S], (exist >= 1, S.*W.*D and loop_free))",
            "(dstIP = 10.0.1.0/24, [S], (exist >= 1, S.*W.*D and loop_free))",
            "(dstIP = 10.0.0.0/24, [S], (equal, (S.*D, (== shortest+1))))",
            "(dstIP = 10.0.1.0/24, [S], (equal, (S.*D, (== shortest+1))))",
            "(dstIP = 10.0.0.0/23, [S], (exist >= 1, S.*D, (<= 4)))",
        ]
        invariants = [
            tulkun.parse(source, name=f"inv{index}")
            for index, source in enumerate(sources)
        ]
        batch = deployment.verify_all(invariants)
        first = int(batch[0].plan_id.split("-")[1])
        assert [report.plan_id for report in batch] == [
            f"plan-{first + index}" for index in range(len(invariants))
        ]
        assert [report.invariant for report in batch] == invariants
        assert list(deployment.plans) == [report.plan_id for report in batch]
        with deploy(tulkun, **self.options) as fresh:
            alone = [fresh.verify(invariant) for invariant in invariants]
        assert [report.holds for report in batch] == [False] * 4 + [True]
        assert all(report.violations for report in batch[2:4])
        for grouped, single in zip(batch, alone):
            assert grouped.holds == single.holds
            assert verdict_function(grouped) == verdict_function(single)
            assert violations(grouped) == violations(single)
        # Every report of the batch carries the one install's counters.
        counters = {
            (r.verification_seconds, r.message_count, r.message_bytes)
            for r in batch
        }
        assert len(counters) == 1
        assert batch[0].message_count < sum(r.message_count for r in alone)
        assert batch[0].message_bytes < sum(r.message_bytes for r in alone)
        assert deployment.reports(batch[1].plan_id)[0].holds is False


class TestDeploymentOnTheRuntime(TestDeployment):
    options = dict(backend="runtime", **FAST)


def test_deploy_passes_its_options_to_the_simulator(tulkun):
    deployment = deploy(tulkun, flight=True, flight_capacity=8)
    assert deployment.backend.flight_capacity == 8
    deployment.verify(
        tulkun.parse("(dstIP = 10.0.0.0/23, [S], (exist >= 1, S.*D, (<= 4)))")
    )
    dumps = deployment.flight_dump()
    assert {dump["capacity"] for dump in dumps.values()} == {8}
    # Eight slots cannot hold a device's install: the small ring wrapped.
    assert any(dump["truncated"] for dump in dumps.values())
