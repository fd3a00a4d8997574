"""Fault-tolerant DPVNet tests (§6, Proposition 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.planner.dpvnet import build_dpvnet, enumerate_valid_paths
from repro.spec.ast import SHORTEST, LengthFilter, PathExp
from repro.topology.generators import paper_example, synthetic_wan
from repro.topology.graph import FaultScene


class TestProposition2:
    """Concrete filters: per-scene paths ⊆ intact paths.  Symbolic
    filters: monotone w.r.t. scene inclusion."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 50),
        link_indices=st.lists(st.integers(0, 30), min_size=1, max_size=2),
    )
    def test_concrete_filters_subset(self, seed, link_indices):
        topology = synthetic_wan("p2", 10, 16, seed=seed)
        links = [link.endpoints for link in topology.links]
        scene = FaultScene(links[i % len(links)] for i in link_indices)
        src, dst = topology.devices[0], topology.devices[-1]
        path_exp = PathExp(
            f"{src} .* {dst}", (LengthFilter("<=", 5),), loop_free=True
        )
        intact = set(enumerate_valid_paths(topology, path_exp, [src]))
        failed = set(enumerate_valid_paths(topology, path_exp, [src], scene))
        assert failed <= intact

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 50),
        first=st.integers(0, 30),
        second=st.integers(0, 30),
    )
    def test_symbolic_filters_monotone_in_scenes(self, seed, first, second):
        """f' ⊆ f implies R(G_f) ⊆ R(G_f')."""
        topology = synthetic_wan("p2s", 10, 16, seed=seed)
        links = [link.endpoints for link in topology.links]
        smaller = FaultScene([links[first % len(links)]])
        larger = FaultScene(
            [links[first % len(links)], links[second % len(links)]]
        )
        src, dst = topology.devices[0], topology.devices[-1]
        path_exp = PathExp(
            f"{src} .* {dst}",
            (LengthFilter("<=", SHORTEST, 1),),
            loop_free=True,
        )
        # Same filter *values* only when shortest is unchanged; Prop. 2
        # asserts set inclusion of valid paths per scene regardless:
        paths_larger = set(
            enumerate_valid_paths(topology, path_exp, [src], larger)
        )
        shortest_small = topology.hop_distances(src, smaller).get(dst)
        shortest_large = topology.hop_distances(src, larger).get(dst)
        if shortest_small == shortest_large:
            paths_smaller = set(
                enumerate_valid_paths(topology, path_exp, [src], smaller)
            )
            assert paths_larger <= paths_smaller


class TestFaultTolerantDpvnet:
    def test_union_over_scenes(self):
        """The fault-tolerant DPVNet contains every scene's valid paths
        (Figure 8's construction)."""
        topology = paper_example()
        scenes = [
            FaultScene([("A", "B")]),
            FaultScene([("B", "W"), ("B", "D")]),
        ]
        path_exp = PathExp(
            "S .* D", (LengthFilter("<=", SHORTEST, 1),), loop_free=True
        )
        net = build_dpvnet(topology, [path_exp], ["S"], scenes=scenes)
        for scene_index, scene in enumerate(net.scenes):
            expected = set(
                enumerate_valid_paths(topology, path_exp, ["S"], scene)
            )
            assert set(net.paths(label=(0, scene_index))) == expected

    def test_scene_zero_is_intact(self):
        topology = paper_example()
        net = build_dpvnet(
            topology,
            [PathExp("S .* D", loop_free=True)],
            ["S"],
            scenes=[FaultScene([("B", "D")])],
        )
        assert net.scenes[0] == FaultScene()
        assert len(net.scenes) == 2

    def test_any_two_failures_figure8(self):
        """The Figure 8 workload: (<= shortest+1) reachability under all
        2-link failures of the example network."""
        from repro.spec.parser import AnyK, expand_fault_scenes

        topology = paper_example()
        scenes = expand_fault_scenes((AnyK(2),), topology)
        path_exp = PathExp(
            "S .* D", (LengthFilter("<=", SHORTEST, 1),), loop_free=True
        )
        net = build_dpvnet(topology, [path_exp], ["S"], scenes=scenes)
        assert len(net.scenes) == 22  # intact + 6 + 15
        # Scenes that disconnect S or D entirely are intolerable.
        from repro.planner.dpvnet import intolerable_scenes

        bad = intolerable_scenes(net)
        sa_cut = net.scenes.index(FaultScene([("S", "A")]))
        assert sa_cut in bad
        d_cut = net.scenes.index(FaultScene([("B", "D"), ("W", "D")]))
        assert d_cut in bad
