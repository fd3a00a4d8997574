"""Tests for the product-graph DPVNet construction (ablation path)."""

import pytest

from repro.counting import count_dpvnet
from repro.dataplane.actions import Deliver, Forward
from repro.planner.dpvnet import PlannerError, build_dpvnet
from repro.planner.product import product_dpvnet
from repro.spec.ast import LengthFilter, PathExp
from repro.topology.generators import fattree, line, paper_example
from tests.topology.test_generators import ring


class TestProductConstruction:
    def test_line_matches_trie(self):
        # ".*" over an undirected topology yields a cyclic product (the
        # DFA state does not progress), so the ablation uses a
        # hop-progressive pattern: exactly three intermediate devices.
        topology = line(5)
        path_exp = PathExp("d0 . . . d4")
        product = product_dpvnet(topology, path_exp, ["d0"])
        trie = build_dpvnet(topology, [path_exp], ["d0"])
        assert sorted(product.paths()) == sorted(trie.paths())

    def test_fattree_waypoint(self):
        topology = fattree(4)
        path_exp = PathExp("edge_0_0 agg_0_0 core_0 agg_1_0 edge_1_0")
        product = product_dpvnet(topology, path_exp, ["edge_0_0"])
        assert product.paths() == [
            ("edge_0_0", "agg_0_0", "core_0", "agg_1_0", "edge_1_0")
        ]

    def test_counting_agrees_with_trie(self):
        topology = line(4)
        topology.attach_prefix("d3", "10.0.0.0/24")
        path_exp = PathExp("d0 . . d3")
        product = product_dpvnet(topology, path_exp, ["d0"])
        trie = build_dpvnet(topology, [path_exp], ["d0"])
        actions = {
            "d0": Forward(["d1"]),
            "d1": Forward(["d2"]),
            "d2": Forward(["d3"]),
            "d3": Deliver(),
        }
        product_counts = count_dpvnet(product, actions.get)
        trie_counts = count_dpvnet(trie, actions.get)
        assert (
            product_counts[product.roots["d0"].node_id]
            == trie_counts[trie.roots["d0"].node_id]
        )

    def test_cyclic_product_rejected(self):
        topology = ring(4)
        with pytest.raises(PlannerError, match="cyclic"):
            product_dpvnet(topology, PathExp("d0 .* d2"), ["d0"])

    def test_length_filters_rejected(self):
        topology = line(3)
        with pytest.raises(PlannerError):
            product_dpvnet(
                topology, PathExp("d0 .* d2", (LengthFilter("<=", 4),)), ["d0"]
            )

    def test_loop_free_rejected(self):
        topology = line(3)
        with pytest.raises(PlannerError):
            product_dpvnet(topology, PathExp("d0 .* d2", loop_free=True), ["d0"])

    def test_waypoint_on_example(self):
        """S.*W.*D on the example network is cyclic as a product (paths
        may bounce B-W) -- the trie construction is required."""
        topology = paper_example()
        with pytest.raises(PlannerError):
            product_dpvnet(topology, PathExp("S .* W .* D"), ["S"])
