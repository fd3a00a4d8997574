"""Verification decomposition: DPVNet -> per-device counting tasks (§4.2).

``plan_invariant`` turns an invariant into a :class:`Plan`:

* ``mode="minimal"`` -- a single ``exist`` match: devices propagate the
  minimal counting information of Prop. 1 (min / max / two smallest).
* ``mode="full"`` -- compound behaviors: devices propagate full count
  sets of tuples (one component per path expression); the behavior
  formula is evaluated per universe at the source.
* ``mode="local"`` -- an ``equal`` match (all-shortest-path
  availability): the minimal counting information is the empty set; every
  device checks locally that it forwards the packet space to exactly its
  downstream DPVNet neighbors (RCDC's local contracts as a special case).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.planner.dpvnet import DpvNet, Label, PlannerError, build_dpvnet
from repro.spec.ast import (
    And,
    Behavior,
    CountExpr,
    Equal,
    Exist,
    Invariant,
    Match,
    Not,
    Or,
)
from repro.spec.parser import expand_fault_scenes
from repro.topology.graph import FaultScene, Topology


@dataclass(frozen=True)
class NodeTask:
    """The counting task of one DPVNet node, shipped to its device.

    ``children`` lists (node id, device, labels) of downstream neighbors;
    ``parents`` lists (node id, device) of upstream neighbors, the
    recipients of this node's counting results.
    """

    node_id: str
    dev: str
    accept: FrozenSet[Label]
    children: Tuple[Tuple[str, str, FrozenSet[Label]], ...]
    parents: Tuple[Tuple[str, str], ...]
    is_root_for: Tuple[str, ...]  # ingress devices this node is the source of

    def downstream_devices(self, scene_index: int) -> FrozenSet[str]:
        """Devices reachable via edges active in ``scene_index``."""
        return frozenset(
            dev
            for (_, dev, labels) in self.children
            if any(scene == scene_index for (_, scene) in labels)
        )

    def accepts_in_scene(self, scene_index: int) -> Tuple[int, ...]:
        return tuple(
            sorted(regex for (regex, scene) in self.accept if scene == scene_index)
        )


@dataclass(frozen=True)
class DeviceTask:
    """Everything one device needs: its DPVNet nodes and the plan metadata."""

    device: str
    nodes: Tuple[NodeTask, ...]


@dataclass
class Plan:
    """The output of the planner for one invariant."""

    invariant: Invariant
    dpvnet: DpvNet
    mode: str  # "minimal" | "full" | "local"
    count_exprs: Tuple[Optional[CountExpr], ...]  # per regex index
    device_tasks: Dict[str, DeviceTask]
    root_nodes: Dict[str, str]  # ingress device -> node id
    _evaluator: Callable[[Tuple[int, ...]], bool] = field(repr=False, default=None)

    @property
    def dim(self) -> int:
        return self.dpvnet.num_regexes

    @property
    def scenes(self) -> Tuple[FaultScene, ...]:
        return self.dpvnet.scenes

    def universe_satisfies(self, counts: Tuple[int, ...]) -> bool:
        """Evaluate the behavior formula for one universe's count tuple."""
        return self._evaluator(counts)

    def holds(self, count_tuples: Iterable[Tuple[int, ...]]) -> bool:
        """True when every universe satisfies the behavior."""
        return all(self.universe_satisfies(element) for element in count_tuples)

    def devices(self) -> Tuple[str, ...]:
        return tuple(sorted(self.device_tasks))


def _compile_evaluator(
    behavior: Behavior, index_of: Dict[int, int]
) -> Callable[[Tuple[int, ...]], bool]:
    """Compile the behavior tree into a per-universe predicate.

    ``index_of`` maps ``id(match_atom)`` to the atom's regex index.
    """
    if isinstance(behavior, Match):
        index = index_of[id(behavior)]
        op = behavior.op
        if not isinstance(op, Exist):
            raise PlannerError(
                "equal matches cannot be combined with counting atoms"
            )
        count = op.count
        return lambda counts: count.satisfied_by(counts[index])
    if isinstance(behavior, Not):
        inner = _compile_evaluator(behavior.inner, index_of)
        return lambda counts: not inner(counts)
    if isinstance(behavior, And):
        left = _compile_evaluator(behavior.left, index_of)
        right = _compile_evaluator(behavior.right, index_of)
        return lambda counts: left(counts) and right(counts)
    if isinstance(behavior, Or):
        left = _compile_evaluator(behavior.left, index_of)
        right = _compile_evaluator(behavior.right, index_of)
        return lambda counts: left(counts) or right(counts)
    raise PlannerError(f"unknown behavior node {behavior!r}")


def plan_invariant(
    invariant: Invariant,
    topology: Topology,
) -> Plan:
    """Plan one invariant: build its DPVNet and decompose into tasks."""
    atoms = invariant.atoms()
    if not atoms:
        raise PlannerError("invariant has no matches")

    equal_atoms = [a for a in atoms if isinstance(a.op, Equal)]
    exist_atoms = [a for a in atoms if isinstance(a.op, Exist)]
    if equal_atoms and exist_atoms:
        raise PlannerError(
            "mixing equal and exist matches in one invariant is not "
            "supported; split them into separate invariants"
        )
    if equal_atoms:
        if len(equal_atoms) > 1 or not isinstance(invariant.behavior, Match):
            raise PlannerError(
                "equal matches verify locally and must be the sole match "
                "of their invariant"
            )
        mode = "local"
        planned_atoms: Sequence[Match] = equal_atoms
    else:
        mode = "minimal" if isinstance(invariant.behavior, Match) else "full"
        planned_atoms = exist_atoms

    scenes = expand_fault_scenes(invariant.fault_scenes, topology)
    dpvnet = build_dpvnet(
        topology,
        [atom.path for atom in planned_atoms],
        invariant.ingress_set,
        scenes,
    )

    index_of = {id(atom): index for index, atom in enumerate(planned_atoms)}
    if mode == "local":
        evaluator = lambda counts: True  # verdicts come from local checks
        count_exprs: Tuple[Optional[CountExpr], ...] = (None,)
    else:
        evaluator = _compile_evaluator(invariant.behavior, index_of)
        count_exprs = tuple(atom.op.count for atom in planned_atoms)

    root_nodes = {
        ingress: node.node_id for ingress, node in dpvnet.roots.items()
    }
    root_ingresses: Dict[str, List[str]] = {}
    for ingress, node_id in root_nodes.items():
        root_ingresses.setdefault(node_id, []).append(ingress)

    tasks_by_device: Dict[str, List[NodeTask]] = {}
    for node in dpvnet.topo_order:
        task = NodeTask(
            node_id=node.node_id,
            dev=node.dev,
            accept=node.accept,
            children=tuple(
                (edge.child.node_id, edge.child.dev, edge.labels)
                for _, edge in sorted(node.children.items())
            ),
            parents=tuple(
                (parent_id, dpvnet.nodes[parent_id].dev)
                for parent_id in node.parent_ids
            ),
            is_root_for=tuple(sorted(root_ingresses.get(node.node_id, ()))),
        )
        tasks_by_device.setdefault(node.dev, []).append(task)

    device_tasks = {
        device: DeviceTask(device, tuple(tasks))
        for device, tasks in tasks_by_device.items()
    }
    return Plan(
        invariant=invariant,
        dpvnet=dpvnet,
        mode=mode,
        count_exprs=count_exprs,
        device_tasks=device_tasks,
        root_nodes=root_nodes,
        _evaluator=evaluator,
    )
