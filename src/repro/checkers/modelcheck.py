"""Explicit-state model checking of the session FSM (FSM001, FSM002).

A small-scope, stdlib-only BFS explorer in the Plankton tradition: the
:data:`~repro.runtime.connection.SESSION_TRANSITIONS` table -- the dict
``PeerSession._fire`` executes, passed in by the caller, not scraped
from source -- is explored as the *product of two peer sessions* (the
two endpoints of one topology link) to a fixpoint, and every reachable
product state is checked for liveness.

Semantics
---------

* Both sessions start in the first declared state (CLOSED); exploration
  covers a run in which the operator never calls ``stop()`` (the
  administrative events in :data:`ADMIN_EVENTS` are excluded --
  shutting a session down is not a protocol deadlock).
* Either side may take any transition its local state enables, subject
  to the *coupling rules* tying the two endpoints together:

  - ``adopt`` needs the peer in OPEN_SENT (adoption happens when the
    peer's dial lands and its OPEN arrives);
  - ``peer_open`` needs the peer in OPEN_SENT or ESTABLISHED (it has
    sent its OPEN and may already have seen ours);
  - ``rx_*`` frame events need the peer ESTABLISHED (counting traffic
    only flows on a fully open session);
  - everything else (timers, TCP outcomes, loss) is a local stimulus,
    always enabled.

* **FSM001 (deadlock)**: a reachable product state with *no* enabled
  transition on either side.  The BFS parent pointers yield a shortest
  counterexample trace from the initial state, rendered step by step in
  the finding.
* **FSM002 (unreachable)**: a declared session state with no path from
  the initial state in the *single-session* graph, administrative
  events included (DRAINING is fine -- ``stop`` reaches it) -- a dead
  table row.

The state space is tiny by construction (|states|^2 = 36 product states
at most), which is the point: the session FSM is *meant* to be small
enough to check exhaustively on every CI run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.checkers.findings import Finding

#: Repo-relative path of the session implementation (where findings
#: anchor; its presence is what marks a tree as having a session FSM).
CONNECTION_PATH = Path("src/repro/runtime/connection.py")

#: The state in which counting traffic flows.
ESTABLISHED_STATE = "ESTABLISHED"

#: Administrative events excluded from liveness exploration (the
#: operator stopping a session is not a protocol deadlock).
ADMIN_EVENTS = frozenset({"stop", "drained"})

#: ``(state, event) -> next state``, as ``SESSION_TRANSITIONS`` is.
Transitions = Mapping[Tuple[str, str], str]

#: ``event -> peer states that enable it`` (None = always enabled).
_PEER_COUPLING: Dict[str, Tuple[str, ...]] = {
    "adopt": ("OPEN_SENT",),
    "peer_open": ("OPEN_SENT", ESTABLISHED_STATE),
}

ProductState = Tuple[str, str]
#: One counterexample step: (side, event, resulting product state).
Step = Tuple[str, str, ProductState]


@dataclass
class ExplorationResult:
    """The fixpoint of one two-session product exploration."""

    initial: ProductState = ("CLOSED", "CLOSED")
    states_explored: int = 0
    transitions_explored: int = 0
    #: Deadlocked product states with their shortest traces.
    deadlocks: List[Tuple[ProductState, List[Step]]] = field(
        default_factory=list
    )
    #: Declared session states never inhabited by either component.
    unreachable: List[str] = field(default_factory=list)
    #: Whether the fully-established product state is reachable.
    established_reachable: bool = False


def _enabled(event: str, peer_state: str) -> bool:
    if event in ADMIN_EVENTS:
        return False
    if event.startswith("rx_"):
        return peer_state == ESTABLISHED_STATE
    required = _PEER_COUPLING.get(event)
    return required is None or peer_state in required


def _moves(
    transitions: Transitions, state: ProductState
) -> List[Tuple[str, str, ProductState]]:
    """Every enabled ``(side, event, successor)`` from ``state``."""
    a, b = state
    moves: List[Tuple[str, str, ProductState]] = []
    for (source, event), target in sorted(transitions.items()):
        if source == a and _enabled(event, b):
            moves.append(("A", event, (target, b)))
        if source == b and _enabled(event, a):
            moves.append(("B", event, (a, target)))
    return moves


def explore_product(
    states: Sequence[str], transitions: Transitions
) -> ExplorationResult:
    """BFS the two-session product space to a fixpoint."""
    initial: ProductState = (states[0], states[0])
    result = ExplorationResult(initial=initial)
    parents: Dict[ProductState, Optional[Tuple[ProductState, str, str]]] = {
        initial: None
    }
    queue: "deque[ProductState]" = deque([initial])
    deadlocked: List[ProductState] = []
    while queue:
        state = queue.popleft()
        result.states_explored += 1
        moves = _moves(transitions, state)
        if not moves:
            deadlocked.append(state)
            continue
        for side, event, successor in moves:
            result.transitions_explored += 1
            if successor not in parents:
                parents[successor] = (state, side, event)
                queue.append(successor)

    result.established_reachable = (
        ESTABLISHED_STATE,
        ESTABLISHED_STATE,
    ) in parents
    for state in deadlocked:
        result.deadlocks.append((state, _trace(parents, state)))

    closure = _single_session_closure(states[0], transitions)
    result.unreachable = [s for s in states if s not in closure]
    return result


def _single_session_closure(
    initial: str, transitions: Transitions
) -> "frozenset[str]":
    """States reachable in one session alone, admin events included."""
    seen = {initial}
    frontier = [initial]
    while frontier:
        state = frontier.pop()
        for (source, _event), target in transitions.items():
            if source == state and target not in seen:
                seen.add(target)
                frontier.append(target)
    return frozenset(seen)


def _trace(
    parents: Dict[ProductState, Optional[Tuple[ProductState, str, str]]],
    state: ProductState,
) -> List[Step]:
    """Shortest path from the initial state to ``state``."""
    steps: List[Step] = []
    cursor: ProductState = state
    while True:
        parent = parents[cursor]
        if parent is None:
            break
        previous, side, event = parent
        steps.append((side, event, cursor))
        cursor = previous
    steps.reverse()
    return steps


def render_trace(initial: ProductState, steps: List[Step]) -> str:
    """``(CLOSED,CLOSED) =A:start=> (DIALING,CLOSED) =...`` one-liner."""
    parts = [f"({initial[0]},{initial[1]})"]
    for side, event, state in steps:
        parts.append(f"={side}:{event}=> ({state[0]},{state[1]})")
    return " ".join(parts)


def check_model(
    states: Sequence[str], transitions: Transitions, line: int = 1
) -> Tuple[List[Finding], ExplorationResult]:
    """FSM001/FSM002 over the explored product space.

    ``line`` is where the table sits in ``connection.py``, for anchoring.
    """
    findings: List[Finding] = []
    result = explore_product(states, transitions)
    path = str(CONNECTION_PATH)
    for state, steps in result.deadlocks:
        findings.append(
            Finding(
                path=path,
                line=line,
                col=1,
                rule="FSM001",
                message=(
                    f"deadlock: product state ({state[0]},{state[1]}) is "
                    "reachable and enables no transition on either side"
                ),
                hint=(
                    "counterexample: "
                    + render_trace(result.initial, steps)
                    + " -- add an outgoing edge (retry/timeout) to the "
                    "stuck state"
                ),
            )
        )
    for state in result.unreachable:
        findings.append(
            Finding(
                path=path,
                line=line,
                col=1,
                rule="FSM002",
                message=(
                    f"declared session state {state} is unreachable from "
                    f"{states[0]} in the two-session product space"
                ),
                hint=(
                    "add the transition that enters it, or delete the dead "
                    "state from SESSION_STATES"
                ),
            )
        )
    return findings, result
