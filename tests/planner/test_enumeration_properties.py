"""Property-based tests of valid-path enumeration and DAG construction."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.planner.dpvnet import build_dpvnet, enumerate_valid_paths
from repro.spec.ast import SHORTEST, LengthFilter, PathExp
from repro.topology.generators import synthetic_wan


def _reference_paths(topology, source, destination, extra):
    """Every simple source -> destination path within shortest + extra
    hops, by exhaustive search (no DFA, no pruning)."""
    bound = topology.shortest_hop_count(source, destination) + extra
    found = set()

    def extend(path):
        if path[-1] == destination:
            found.add(tuple(path))
        elif len(path) <= bound:
            for peer in topology.neighbors(path[-1]):
                if peer not in path:
                    extend(path + [peer])

    extend([source])
    return found


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 200),
    extra=st.integers(0, 2),
    src_index=st.integers(0, 9),
    dst_index=st.integers(0, 9),
)
def test_enumerated_paths_are_valid(seed, extra, src_index, dst_index):
    topology = synthetic_wan("prop", 10, 16, seed=seed)
    devices = topology.devices
    source, destination = devices[src_index], devices[dst_index]
    if source == destination:
        return
    path_exp = PathExp(
        f"{source} .* {destination}",
        (LengthFilter("<=", SHORTEST, extra),),
        loop_free=True,
    )
    dfa = path_exp.compile()
    shortest = topology.shortest_hop_count(source, destination)
    paths = enumerate_valid_paths(topology, path_exp, [source])
    for path in paths:
        # simple
        assert len(path) == len(set(path))
        # physically realizable
        for index in range(len(path) - 1):
            assert topology.has_link(path[index], path[index + 1])
        # accepted by the regex
        assert dfa.accepts(path)
        # within the length filter
        assert len(path) - 1 <= shortest + extra
    # completeness against the reference path finder
    assert set(paths) == _reference_paths(topology, source, destination, extra)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 200), extra=st.integers(0, 2))
def test_dag_paths_round_trip(seed, extra):
    """build_dpvnet represents exactly the enumerated path set."""
    topology = synthetic_wan("prop2", 9, 14, seed=seed)
    source, destination = topology.devices[0], topology.devices[-1]
    path_exp = PathExp(
        f"{source} .* {destination}",
        (LengthFilter("<=", SHORTEST, extra),),
        loop_free=True,
    )
    paths = enumerate_valid_paths(topology, path_exp, [source])
    if not paths:
        return
    net = build_dpvnet(topology, [path_exp], [source])
    assert sorted(net.paths()) == sorted(paths)
    # acyclicity: topological positions strictly increase along edges
    position = {node.node_id: i for i, node in enumerate(net.topo_order)}
    for node in net.topo_order:
        for edge in node.children.values():
            assert position[node.node_id] < position[edge.child.node_id]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 200))
def test_minimized_dag_no_duplicate_suffix_classes(seed):
    """No two same-device nodes may have identical accept + children --
    minimization must have merged them."""
    topology = synthetic_wan("prop3", 9, 14, seed=seed)
    source, destination = topology.devices[0], topology.devices[-1]
    path_exp = PathExp(
        f"{source} .* {destination}",
        (LengthFilter("<=", SHORTEST, 1),),
        loop_free=True,
    )
    paths = enumerate_valid_paths(topology, path_exp, [source])
    if not paths:
        return
    net = build_dpvnet(topology, [path_exp], [source])
    signatures = set()
    for node in net.topo_order:
        signature = (
            node.dev,
            node.accept,
            tuple(
                (dev, edge.child.node_id)
                for dev, edge in sorted(node.children.items())
            ),
        )
        assert signature not in signatures, "unmerged suffix class"
        signatures.add(signature)
