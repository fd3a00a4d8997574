"""DPVNet: the DAG of all valid paths (paper §4.1, §4.3, §6).

Construction multiplies each path expression's DFA with the topology.  We
enumerate the (finite) set of valid paths per (path expression, fault
scene) with product-graph pruning, then compress the path set into its
minimal DAG: build the prefix trie and merge suffix-equivalent nodes
bottom-up -- the paper's "state minimization to remove redundant nodes".

Compound invariants and fault tolerance are handled with *labels*: every
path carries the set of ``(regex index, scene index)`` pairs it is valid
for, and the DAG keeps, per node, which labels are accepted there
(``accept``) and which flow through its subtree (``flow``).  Per-regex
labels realize the paper's virtual-destination construction (§4.3) -- the
label partitions nodes exactly as the virtual devices D^i would -- and
per-scene labels realize the fault-tolerant DPVNet of §6.

A :class:`DpvNet` is a DAG by construction: every node corresponds to an
equivalence class of path suffixes, so a cycle would require an infinite
path.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.spec.ast import PathExp
from repro.spec.automata import Dfa
from repro.topology.graph import NO_FAULTS, FaultScene, Topology

#: A label: (regex index, scene index).
Label = Tuple[int, int]


class PlannerError(RuntimeError):
    """Raised when a DPVNet cannot be constructed."""


#: Valid paths one (path expression, scene) may have before planning stops:
#: past this the path set, not the network, is the problem.
MAX_PATHS = 200_000


# ---------------------------------------------------------------------------
# path enumeration


def _product_reverse_distances(
    topology: Topology,
    dfa: Dfa,
    scene: FaultScene,
) -> Dict[Tuple[str, int], int]:
    """Min hops from each (device, dfa state) to any accepting state.

    Works backwards from every accepting product state; used both to
    compute the symbolic ``shortest`` value and to prune enumeration.
    """
    # Forward adjacency on demand is cheap; build reverse edges directly.
    reverse: Dict[Tuple[str, int], List[Tuple[str, int]]] = {}
    for device in topology.devices:
        for peer in topology.neighbors(device, scene):
            for state in range(dfa.num_states):
                target = dfa.step(state, peer)
                reverse.setdefault((peer, target), []).append((device, state))
    distances: Dict[Tuple[str, int], int] = {}
    frontier: List[Tuple[str, int]] = []
    for device in topology.devices:
        for state in dfa.accepting:
            key = (device, state)
            distances[key] = 0
            frontier.append(key)
    depth = 0
    while frontier:
        depth += 1
        next_frontier: List[Tuple[str, int]] = []
        for key in frontier:
            for predecessor in reverse.get(key, ()):
                if predecessor not in distances:
                    distances[predecessor] = depth
                    next_frontier.append(predecessor)
        frontier = next_frontier
    return distances


def enumerate_valid_paths(
    topology: Topology,
    path_exp: PathExp,
    ingresses: Sequence[str],
    scene: FaultScene = NO_FAULTS,
) -> List[Tuple[str, ...]]:
    """All paths from any ingress matching ``path_exp`` under ``scene``.

    Paths include the ingress device as their first element (traces start
    at the ingress, §2.1).  Raises :class:`PlannerError` when the path set
    exceeds :data:`MAX_PATHS`.
    """
    dfa = path_exp.compile()
    loop_free = path_exp.effective_loop_free
    reverse = _product_reverse_distances(topology, dfa, scene)
    paths: List[Tuple[str, ...]] = []

    for ingress in ingresses:
        if not topology.has_device(ingress):
            raise PlannerError(f"unknown ingress device {ingress!r}")
        start_state = dfa.step(dfa.initial, ingress)
        start_key = (ingress, start_state)
        if start_key not in reverse:
            continue  # no matching path from this ingress
        shortest = reverse[start_key]

        bound = path_exp.max_hops(shortest)
        if bound is None:
            # Unbounded above.  A loop-free path visits each device once;
            # any other path visits each live product state at most once
            # (repeats are forbidden below), which bounds the path set
            # while keeping every non-pumping path.
            bound = (topology.num_devices if loop_free else len(reverse)) - 1

        # What may not repeat on a path: devices under loop_free, product
        # states otherwise.
        path: List[str] = [ingress]
        on_path: Set[object] = {ingress if loop_free else start_key}

        def extend(device: str, state: int) -> None:
            hops = len(path) - 1
            if dfa.is_accepting(state) and path_exp.admits_length(hops, shortest):
                paths.append(tuple(path))
                if len(paths) > MAX_PATHS:
                    raise PlannerError(
                        f"more than {MAX_PATHS} valid paths for "
                        f"{path_exp.regex!r}; add length filters"
                    )
            for peer in topology.neighbors(device, scene):
                next_state = dfa.step(state, peer)
                key = (peer, next_state)
                remaining = reverse.get(key)
                if remaining is None:
                    continue  # dead product state
                if hops + 1 + remaining > bound:
                    continue
                mark = peer if loop_free else key
                if mark in on_path:
                    continue
                path.append(peer)
                on_path.add(mark)
                extend(peer, next_state)
                path.pop()
                on_path.remove(mark)

        extend(ingress, start_state)
    return paths


# ---------------------------------------------------------------------------
# DAG nodes


class DpvEdge:
    """A downstream edge of the DPVNet, labeled with the (regex, scene)
    pairs for which some valid path continues through it."""

    __slots__ = ("child", "labels")

    def __init__(self, child: "DpvNode", labels: FrozenSet[Label]) -> None:
        self.child = child
        self.labels = labels

    def __repr__(self) -> str:
        return f"DpvEdge(->{self.child.node_id}, labels={sorted(self.labels)})"


class DpvNode:
    """One node of the DPVNet (a class of path prefixes on one device)."""

    __slots__ = ("node_id", "dev", "accept", "children", "parent_ids", "flow")

    def __init__(
        self,
        node_id: str,
        dev: str,
        accept: FrozenSet[Label],
        children: Dict[str, DpvEdge],
    ) -> None:
        self.node_id = node_id
        self.dev = dev
        self.accept = accept
        self.children = children  # keyed by child device (unique per node)
        self.parent_ids: Tuple[str, ...] = ()
        flow: Set[Label] = set(accept)
        for edge in children.values():
            flow |= edge.labels
        self.flow: FrozenSet[Label] = frozenset(flow)

    def __repr__(self) -> str:
        return (
            f"DpvNode({self.node_id}, dev={self.dev!r}, "
            f"children={sorted(self.children)}, accept={sorted(self.accept)})"
        )


class DpvNet:
    """The DAG of valid paths, with per-(regex, scene) labels.

    ``roots`` maps each ingress device to its source node; counting
    verdicts for packets entering at that ingress are read there.
    ``topo_order`` lists nodes parents-first (reverse it for the backward
    counting pass).
    """

    def __init__(
        self,
        roots: Dict[str, DpvNode],
        nodes: Dict[str, DpvNode],
        topo_order: Tuple[DpvNode, ...],
        num_regexes: int,
        scenes: Tuple[FaultScene, ...],
    ) -> None:
        self.roots = roots
        self.nodes = nodes
        self.topo_order = topo_order
        self.num_regexes = num_regexes
        self.scenes = scenes

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return sum(len(node.children) for node in self.nodes.values())

    def devices(self) -> Tuple[str, ...]:
        return tuple(sorted({node.dev for node in self.nodes.values()}))

    def paths(
        self, label: Label = (0, 0), ingress: Optional[str] = None
    ) -> List[Tuple[str, ...]]:
        """Re-expand the valid paths for one label (testing/debugging)."""
        results: List[Tuple[str, ...]] = []
        roots = (
            [self.roots[ingress]]
            if ingress is not None
            else list(self.roots.values())
        )
        for root in roots:
            if label not in root.flow:
                continue
            stack: List[Tuple[DpvNode, Tuple[str, ...]]] = [(root, (root.dev,))]
            while stack:
                node, prefix = stack.pop()
                if label in node.accept:
                    results.append(prefix)
                for edge in node.children.values():
                    if label in edge.labels:
                        stack.append((edge.child, prefix + (edge.child.dev,)))
        return results

    def __repr__(self) -> str:
        return (
            f"DpvNet(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"regexes={self.num_regexes}, scenes={len(self.scenes)})"
        )


# ---------------------------------------------------------------------------
# trie -> minimal DAG


class _TrieNode:
    __slots__ = ("dev", "children", "accept")

    def __init__(self, dev: str) -> None:
        self.dev = dev
        self.children: Dict[str, _TrieNode] = {}
        self.accept: Set[Label] = set()


def _build_trie(
    labeled_paths: Dict[Tuple[str, ...], Set[Label]]
) -> Dict[str, _TrieNode]:
    """Prefix trie per ingress device; returns ingress -> trie root."""
    roots: Dict[str, _TrieNode] = {}
    for path, labels in labeled_paths.items():
        ingress = path[0]
        node = roots.setdefault(ingress, _TrieNode(ingress))
        for device in path[1:]:
            node = node.children.setdefault(device, _TrieNode(device))
        node.accept |= labels
    return roots


def _minimize(
    roots: Dict[str, _TrieNode]
) -> Tuple[Dict[str, DpvNode], Dict[str, DpvNode], Tuple[DpvNode, ...]]:
    """Merge suffix-equivalent trie nodes bottom-up into the minimal DAG."""
    signature_cache: Dict[tuple, DpvNode] = {}
    dev_counters: Dict[str, int] = {}
    all_nodes: Dict[str, DpvNode] = {}

    def visit(node: _TrieNode) -> DpvNode:
        child_nodes = {
            dev: visit(child) for dev, child in sorted(node.children.items())
        }
        signature = (
            node.dev,
            frozenset(node.accept),
            tuple(
                (dev, id(child)) for dev, child in sorted(child_nodes.items())
            ),
        )
        merged = signature_cache.get(signature)
        if merged is None:
            index = dev_counters.get(node.dev, 0) + 1
            dev_counters[node.dev] = index
            # '#' cannot appear in device names, so ids stay unambiguous
            # even for devices whose names end in digits.
            merged = DpvNode(
                node_id=f"{node.dev}#{index}",
                dev=node.dev,
                accept=frozenset(node.accept),
                children={
                    dev: DpvEdge(child, child.flow)
                    for dev, child in child_nodes.items()
                },
            )
            signature_cache[signature] = merged
            all_nodes[merged.node_id] = merged
        return merged

    dpv_roots = {ingress: visit(root) for ingress, root in roots.items()}

    # Parents-first topological order via DFS post-order reversal, and
    # parent id backfill.
    order: List[DpvNode] = []
    seen: Set[str] = set()
    parents: Dict[str, List[str]] = {node_id: [] for node_id in all_nodes}

    def topo(node: DpvNode) -> None:
        if node.node_id in seen:
            return
        seen.add(node.node_id)
        for edge in node.children.values():
            parents[edge.child.node_id].append(node.node_id)
            topo(edge.child)
        order.append(node)

    for root in dpv_roots.values():
        topo(root)
    order.reverse()
    for node in order:
        node.parent_ids = tuple(sorted(set(parents[node.node_id])))
    return dpv_roots, all_nodes, tuple(order)


# ---------------------------------------------------------------------------
# public construction


def build_dpvnet(
    topology: Topology,
    path_exps: Sequence[PathExp],
    ingresses: Sequence[str],
    scenes: Sequence[FaultScene] = (),
) -> DpvNet:
    """Construct the (fault-tolerant, compound) DPVNet.

    ``scenes`` lists the *failure* scenes; scene index 0 is always the
    intact topology, operator scenes follow in order.  Scenes with no
    valid path for a regex simply contribute no labels -- callers can
    detect intolerable scenes by checking the roots' ``flow``.
    """
    all_scenes: Tuple[FaultScene, ...] = (NO_FAULTS,) + tuple(scenes)
    labeled_paths: Dict[Tuple[str, ...], Set[Label]] = {}

    for regex_index, path_exp in enumerate(path_exps):
        # Prop. 2: with only concrete length filters, every scene's valid
        # paths are a subset of the intact topology's, so one enumeration
        # per scene is exact; with symbolic filters the per-scene shortest
        # changes, which enumerate_valid_paths recomputes per scene.
        symbolic = path_exp.has_symbolic_filter
        intact_paths: Optional[Set[Tuple[str, ...]]] = None
        for scene_index, scene in enumerate(all_scenes):
            if scene_index > 0 and not symbolic and intact_paths is not None:
                # Concrete filters: valid paths of the scene are exactly
                # the intact paths that avoid the failed links.
                for path in intact_paths:
                    if _path_avoids(path, scene):
                        labeled_paths.setdefault(path, set()).add(
                            (regex_index, scene_index)
                        )
                continue
            found = enumerate_valid_paths(topology, path_exp, ingresses, scene)
            if scene_index == 0 and not symbolic:
                intact_paths = set(found)
            for path in found:
                labeled_paths.setdefault(path, set()).add(
                    (regex_index, scene_index)
                )

    if not labeled_paths:
        raise PlannerError(
            "no valid path matches any path expression from the given "
            "ingresses; the invariant is unsatisfiable on this topology"
        )
    trie_roots = _build_trie(labeled_paths)
    roots, nodes, topo_order = _minimize(trie_roots)
    return DpvNet(
        roots=roots,
        nodes=nodes,
        topo_order=topo_order,
        num_regexes=len(path_exps),
        scenes=all_scenes,
    )


def _path_avoids(path: Tuple[str, ...], scene: FaultScene) -> bool:
    return not any(
        scene.is_failed(path[index], path[index + 1])
        for index in range(len(path) - 1)
    )


def intolerable_scenes(dpvnet: DpvNet, regex_index: int = 0) -> Tuple[int, ...]:
    """Scene indices with no valid path for ``regex_index`` from any root."""
    covered = {
        scene
        for root in dpvnet.roots.values()
        for (regex, scene) in root.flow
        if regex == regex_index
    }
    return tuple(
        index for index in range(len(dpvnet.scenes)) if index not in covered
    )
