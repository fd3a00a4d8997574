"""§6 end to end: fault-tolerant DPVNet + link-state flooding + online
recounting without the planner."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import Tulkun
from repro.dataplane.routes import RouteConfig, install_routes
from repro.packetspace.fields import DSTIP_ONLY_LAYOUT
from repro.packetspace.predicate import PredicateFactory
from repro.planner import plan_invariant
from repro.simulator.network import SimulatedNetwork
from repro.spec.ast import (
    CountExpr,
    Exist,
    Invariant,
    LengthFilter,
    Match,
    PathExp,
    SHORTEST,
)
from repro.topology.generators import paper_example
from repro.topology.graph import FaultScene


@pytest.fixture()
def setting():
    factory = PredicateFactory(DSTIP_ONLY_LAYOUT)
    topology = paper_example()
    fibs = install_routes(topology, factory, RouteConfig(ecmp="any"))
    packets = factory.dst_prefix("10.0.0.0/23")
    return factory, topology, fibs, packets


def make_plan(topology, packets, scenes):
    invariant = Invariant(
        packets,
        ("S",),
        Match(
            Exist(CountExpr(">=", 1)),
            PathExp(
                "S .* D",
                (LengthFilter("<=", SHORTEST, 1),),
                loop_free=True,
            ),
        ),
        fault_scenes=scenes,
        name="ft-reach",
    )
    return plan_invariant(invariant, topology)


class TestPlannedScene:
    def test_planned_failure_recounts_without_planner(self, setting):
        """After a planned scene fires, verifiers switch to its labels
        and recount; with the symbolic (<= shortest+1) filter the valid
        path set *changes* (Prop. 2) but remains verifiable.

        Note: A's ECMP toward D is {B, W}; failing (A, B) means the B
        universe dies at A's dead link... A's FIB forwards P to B or W;
        with (A, B) down the B choice is lost.  The invariant therefore
        correctly FAILS unless the data plane is repaired -- we repair A
        to pin W and expect a pass, all without planner involvement.
        """
        factory, topology, fibs, packets = setting
        scene = FaultScene([("A", "B")])
        plan = make_plan(topology, packets, (scene,))
        assert len(plan.scenes) == 2

        network = SimulatedNetwork(topology, fibs, factory)
        network.install_plan("ft", plan)
        assert network.holds("ft")

        # the failure fires: the scene is planned, so devices adapt alone
        network.fail_link("A", "B")
        # data plane repair: A re-routes around the dead link
        from repro.dataplane.actions import Forward
        from repro.dataplane.routes import PRIORITY_ERROR

        network.fib_update(
            "A",
            lambda: fibs["A"].insert(
                PRIORITY_ERROR, packets, Forward(["W"]), label="repair"
            ),
        )
        assert network.holds("ft")
        # no device is on an unplanned scene
        assert network.read_out("ft")[2] == {}

    def test_unplanned_failure_reports_to_planner(self, setting):
        factory, topology, fibs, packets = setting
        plan = make_plan(topology, packets, (FaultScene([("A", "B")]),))
        network = SimulatedNetwork(topology, fibs, factory, flight=True)
        network.install_plan("ft", plan)
        network.fail_link("B", "W")  # not a planned scene
        unplanned = network.read_out("ft")[2]
        assert unplanned
        assert all(links == {("B", "W")} for links in unplanned.values())
        assert not network.holds("ft")
        # One flight event per device entering the unplanned scene.
        events = [
            (device, event["links"])
            for device, dump in network.flight_dump().items()
            for event in dump["events"]
            if event["etype"] == "unplanned"
        ]
        assert sorted(events) == [(device, ["B-W"]) for device in sorted(unplanned)]

    def test_scene_resolution_back_to_intact(self, setting):
        factory, topology, fibs, packets = setting
        scene = FaultScene([("A", "B")])
        plan = make_plan(topology, packets, (scene,))
        network = SimulatedNetwork(topology, fibs, factory)
        network.install_plan("ft", plan)
        network.fail_link("A", "B")
        network.recover_link("A", "B")
        assert network.holds("ft")

    def test_symbolic_filter_scene_uses_new_shortest(self, setting):
        """Failing (B, D) makes the shortest S-D path longer for the B
        branch; the scene's DPVNet labels admit the longer paths that the
        intact topology's filter would reject."""
        factory, topology, fibs, packets = setting
        scene = FaultScene([("B", "D")])
        plan = make_plan(topology, packets, (scene,))
        intact_paths = set(plan.dpvnet.paths(label=(0, 0)))
        scene_paths = set(plan.dpvnet.paths(label=(0, 1)))
        assert scene_paths != intact_paths


class TestUnplannedScene:
    """A failure set that matches no planned scene leaves every count
    with the last scene's topology: until a planned scene returns, the
    plan must never read ``holds``."""

    CUT = [("B", "W"), ("W", "D"), ("B", "D")]  # D is cut off from S

    @pytest.mark.parametrize("backend", ["sim", "runtime"])
    def test_cut_off_destination_never_reads_holds(self, backend):
        tulkun = Tulkun(paper_example(), layout=DSTIP_ONLY_LAYOUT)
        fibs = install_routes(
            tulkun.topology, tulkun.factory, RouteConfig(ecmp="any")
        )
        packets = tulkun.factory.dst_prefix("10.0.0.0/23")
        plan = make_plan(tulkun.topology, packets, (FaultScene([("A", "B")]),))
        options = (
            dict(keepalive_interval=0.05, op_timeout=30.0)
            if backend == "runtime"
            else {}
        )
        with tulkun.deploy(fibs, backend=backend, **options) as deployment:
            assert deployment.verify_plan(plan).holds
            for a, b in self.CUT:
                deployment.fail_link(a, b)
            (plan_id,) = deployment.plans
            assert not deployment.holds(plan_id)
            (report,) = deployment.reports()
        assert not report.holds
        cut = {("B", "W"), ("D", "W"), ("B", "D")}
        assert report.unplanned == {device: cut for device in "ABDSW"}
        assert "UNKNOWN: unplanned scene {B-D, B-W, D-W} at A, B, D, S, W" in (
            repr(report)
        )

    def test_explain_names_the_scene_the_chain_ends_at(self, tmp_path, capsys):
        factory = PredicateFactory(DSTIP_ONLY_LAYOUT)
        topology = paper_example()
        fibs = install_routes(topology, factory, RouteConfig(ecmp="any"))
        packets = factory.dst_prefix("10.0.0.0/23")
        plan = make_plan(topology, packets, (FaultScene([("A", "B")]),))
        network = SimulatedNetwork(
            topology, fibs, factory, flight=True, flight_capacity=1 << 14
        )
        network.install_plan("ft", plan)
        for a, b in self.CUT:
            network.fail_link(a, b)
        path = tmp_path / "flight.json"
        path.write_text(json.dumps(network.flight_dump(), default=str))

        assert main(["explain", str(path), "--plan", "ft"]) == 0
        out = capsys.readouterr().out
        assert (
            "-> UNKNOWN: unplanned scene {B-D, B-W, D-W} at A, B, D, S, W" in out
        )
        chain = out.split("causal chain (origin -> verdict):\n", 1)[1]
        assert "admin      link" in chain.splitlines()[0]
        assert "unplanned  plan ft: failed links {" in chain.splitlines()[-1]


LINKS = sorted(link.endpoints for link in paper_example().links)


@settings(max_examples=25, deadline=None)
@given(
    st.sets(st.sampled_from(LINKS), min_size=1, max_size=3).filter(
        lambda failed: failed != {("A", "B")}
    )
)
def test_failure_sets_outside_the_plan_never_read_holds(failed):
    factory = PredicateFactory(DSTIP_ONLY_LAYOUT)
    topology = paper_example()
    fibs = install_routes(topology, factory, RouteConfig(ecmp="any"))
    packets = factory.dst_prefix("10.0.0.0/23")
    plan = make_plan(topology, packets, (FaultScene([("A", "B")]),))
    network = SimulatedNetwork(topology, fibs, factory)
    network.install_plan("ft", plan)
    down = set()
    for a, b in sorted(failed):
        network.fail_link(a, b)
        down.add((a, b))
        if down != {("A", "B")}:  # every prefix but the planned scene
            assert not network.holds("ft")
