"""The verification planner (paper §4 and §6).

Turns an invariant plus a topology into a :class:`DpvNet` -- a DAG
compactly representing every valid path -- and decomposes verification
into per-device counting tasks with minimal counting information.
Fault-tolerant invariants get a single DPVNet covering all operator
specified fault scenes, labeled per scene (§6).
"""

from repro.planner.dpvnet import DpvEdge, DpvNet, DpvNode, PlannerError, build_dpvnet
from repro.planner.tasks import (
    DeviceTask,
    NodeTask,
    Plan,
    plan_invariant,
    plan_invariants,
)

__all__ = [
    "DpvNet",
    "DpvNode",
    "DpvEdge",
    "PlannerError",
    "build_dpvnet",
    "Plan",
    "DeviceTask",
    "NodeTask",
    "plan_invariant",
    "plan_invariants",
]
