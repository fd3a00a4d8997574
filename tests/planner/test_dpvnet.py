"""Unit tests for DPVNet construction (paper §4.1, Figure 2c)."""

import pytest

from repro.planner import dpvnet
from repro.planner.dpvnet import (
    PlannerError,
    build_dpvnet,
    enumerate_valid_paths,
    intolerable_scenes,
)
from repro.spec.ast import SHORTEST, LengthFilter, PathExp
from repro.topology.generators import chained_diamond, fattree, line, paper_example
from repro.topology.graph import FaultScene, Topology


@pytest.fixture()
def topology():
    return paper_example()


class TestEnumeration:
    def test_waypoint_paths(self, topology):
        paths = enumerate_valid_paths(
            topology, PathExp("S .* W .* D", loop_free=True), ["S"]
        )
        assert sorted(paths) == [
            ("S", "A", "B", "W", "D"),
            ("S", "A", "W", "B", "D"),
            ("S", "A", "W", "D"),
        ]

    def test_loop_free_excludes_revisits(self, topology):
        paths = enumerate_valid_paths(
            topology, PathExp("S .* D", loop_free=True), ["S"]
        )
        assert all(len(path) == len(set(path)) for path in paths)

    def test_shortest_filter(self, topology):
        paths = enumerate_valid_paths(
            topology,
            PathExp("S .* D", (LengthFilter("==", SHORTEST),), loop_free=True),
            ["S"],
        )
        assert sorted(paths) == [("S", "A", "B", "D"), ("S", "A", "W", "D")]

    def test_shortest_plus_one(self, topology):
        paths = enumerate_valid_paths(
            topology,
            PathExp("S .* D", (LengthFilter("<=", SHORTEST, 1),), loop_free=True),
            ["S"],
        )
        assert len(paths) == 4

    def test_fault_scene_removes_paths(self, topology):
        scene = FaultScene([("B", "D")])
        paths = enumerate_valid_paths(
            topology, PathExp("S .* D", loop_free=True), ["S"], scene
        )
        assert all(
            ("B", "D") != (path[i], path[i + 1])
            and ("D", "B") != (path[i], path[i + 1])
            for path in paths
            for i in range(len(path) - 1)
        )

    def test_unknown_ingress_rejected(self, topology):
        with pytest.raises(PlannerError):
            enumerate_valid_paths(topology, PathExp("Z .* D"), ["Z"])

    def test_no_matching_path_is_empty(self, topology):
        paths = enumerate_valid_paths(
            topology, PathExp("B W B", loop_free=False), ["S"]
        )
        assert paths == []

    def test_max_paths_guard(self, monkeypatch):
        monkeypatch.setattr(dpvnet, "MAX_PATHS", 10)
        topology = chained_diamond(8)
        with pytest.raises(PlannerError):
            enumerate_valid_paths(
                topology, PathExp("j0 .* j8", loop_free=True), ["j0"]
            )

    def test_multi_ingress(self, topology):
        paths = enumerate_valid_paths(
            topology, PathExp(".* D", (LengthFilter("==", SHORTEST),)), ["S", "B"]
        )
        assert ("B", "D") in paths
        assert any(path[0] == "S" for path in paths)


class TestRevisitingPaths:
    """Without ``loop_free`` a path may pass a device twice, in different
    DFA states: S A W A D matches ``S .* W .* D`` only by going back to A."""

    @pytest.fixture()
    def spur(self):
        topology = Topology()
        for left, right in (("S", "A"), ("A", "D"), ("A", "W")):
            topology.add_link(left, right)
        return topology

    def test_bounded_revisit(self, spur):
        paths = enumerate_valid_paths(
            spur, PathExp("S .* W .* D", (LengthFilter("<=", 4),)), ["S"]
        )
        assert paths == [("S", "A", "W", "A", "D")]

    def test_unbounded_revisit(self, spur):
        # Longer than the device count allows a simple path to be.
        net = build_dpvnet(spur, [PathExp("S .* W .* D")], ["S"])
        assert net.paths() == [("S", "A", "W", "A", "D")]


class TestFigure2c:
    """The constructed DAG must match the paper's Figure 2c exactly."""

    def test_node_count(self, topology):
        net = build_dpvnet(topology, [PathExp("S .* W .* D", loop_free=True)], ["S"])
        # S1, A1, B1, B2, W1, W2, D1
        assert net.num_nodes == 7

    def test_device_multiplicity(self, topology):
        net = build_dpvnet(topology, [PathExp("S .* W .* D", loop_free=True)], ["S"])
        by_dev = {}
        for node in net.topo_order:
            by_dev.setdefault(node.dev, []).append(node)
        assert len(by_dev["B"]) == 2  # B1 (toward W) and B2 (toward D)
        assert len(by_dev["W"]) == 2
        assert len(by_dev["S"]) == 1
        assert len(by_dev["D"]) == 1

    def test_single_destination_accepts(self, topology):
        net = build_dpvnet(topology, [PathExp("S .* W .* D", loop_free=True)], ["S"])
        accepting = [node for node in net.topo_order if node.accept]
        assert len(accepting) == 1
        assert accepting[0].dev == "D"

    def test_paths_round_trip(self, topology):
        path_exp = PathExp("S .* W .* D", loop_free=True)
        net = build_dpvnet(topology, [path_exp], ["S"])
        assert sorted(net.paths()) == sorted(
            enumerate_valid_paths(topology, path_exp, ["S"])
        )

    def test_is_dag(self, topology):
        net = build_dpvnet(topology, [PathExp("S .* W .* D", loop_free=True)], ["S"])
        position = {
            node.node_id: index for index, node in enumerate(net.topo_order)
        }
        for node in net.topo_order:
            for edge in node.children.values():
                assert position[node.node_id] < position[edge.child.node_id]

    def test_parent_ids_consistent(self, topology):
        net = build_dpvnet(topology, [PathExp("S .* W .* D", loop_free=True)], ["S"])
        for node in net.topo_order:
            for edge in node.children.values():
                assert node.node_id in edge.child.parent_ids


class TestMinimization:
    def test_suffix_sharing_on_diamond(self):
        topology = chained_diamond(3)
        net = build_dpvnet(
            topology, [PathExp("j0 .* j3", loop_free=True)], ["j0"]
        )
        # 8 paths of 7 devices each collapse into the diamond DAG:
        # 4 junctions + 2 branch devices per diamond = 10 nodes.
        assert net.num_nodes == 10

    def test_line_is_chain(self):
        topology = line(5)
        net = build_dpvnet(topology, [PathExp("d0 .* d4")], ["d0"])
        assert net.num_nodes == 5
        assert net.num_edges == 4

    def test_fattree_shortest_paths_compact(self):
        topology = fattree(4)
        net = build_dpvnet(
            topology,
            [
                PathExp(
                    "edge_0_0 .* edge_1_0",
                    (LengthFilter("==", SHORTEST),),
                )
            ],
            ["edge_0_0"],
        )
        # 4 shortest paths share structure: src, 2 agg, 4 core, 2 agg, dst
        assert net.num_nodes == 10
        assert len(net.paths()) == 4


class TestUnsatisfiable:
    def test_no_paths_raises(self, topology):
        with pytest.raises(PlannerError):
            build_dpvnet(topology, [PathExp("S X Y D")], ["S"])


class TestSceneLabels:
    def test_concrete_filter_scene_subset(self, topology):
        scene = FaultScene([("B", "D")])
        net = build_dpvnet(
            topology,
            [PathExp("S .* D", (LengthFilter("<=", 4),), loop_free=True)],
            ["S"],
            scenes=[scene],
        )
        intact = set(net.paths(label=(0, 0)))
        failed = set(net.paths(label=(0, 1)))
        assert failed < intact  # Prop. 2: strict subset here

    def test_symbolic_filter_scene_not_subset(self, topology):
        # Under (B,D) failure the shortest S->D path grows, so new paths
        # become valid that were invalid in the intact topology.
        scene = FaultScene([("A", "W"), ("B", "D")])
        net = build_dpvnet(
            topology,
            [PathExp("S .* D", (LengthFilter("==", SHORTEST),), loop_free=True)],
            ["S"],
            scenes=[scene],
        )
        intact = set(net.paths(label=(0, 0)))
        failed = set(net.paths(label=(0, 1)))
        assert failed and not failed <= intact

    def test_intolerable_scene_detection(self, topology):
        # Fail every link around D: no valid path remains.
        scene = FaultScene([("B", "D"), ("W", "D")])
        net = build_dpvnet(
            topology,
            [PathExp("S .* D", loop_free=True)],
            ["S"],
            scenes=[scene],
        )
        assert intolerable_scenes(net) == (1,)
