"""Session-FSM extraction and cross-check (rule FSM004).

The runtime declares the :class:`~repro.runtime.connection.PeerSession`
lifecycle as a checked-in table (``SESSION_TRANSITIONS``) and marks
every implemented transition with a ``self._set_state(event, STATE)``
call.  This module recovers both sides *statically* -- the declared
table from the dict literal, the implemented edges from the call sites
-- and diffs them:

* **FSM004** -- the declared table and the implementation diverge: a
  declared (non-self-loop) transition has no ``_set_state`` call, or a
  call site implements an edge the table never declared.  Each finding
  names the exact edge (``STATE --event--> STATE``).

Self-loop edges (``ESTABLISHED --rx_update--> ESTABLISHED``) document
absorbed stimuli; they need no ``_set_state`` call (the state does not
change) and are exempt from FSM004 -- ``tests/dvm/test_wire_schema.py``
keeps the ``rx_*`` ones equal to the frame kinds of the wire schema.

The extracted :class:`SessionFsm` also feeds the exhaustive product
explorer in :mod:`repro.checkers.modelcheck` (rules FSM001/FSM002).
Everything here is pure AST cross-referencing: no imports of the
analyzed code, so it runs on broken working trees, and ``overrides``
lets the drift tests feed mutated source without touching disk.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.checkers.findings import Finding

#: Repo-relative path of the session implementation.
CONNECTION_PATH = Path("src/repro/runtime/connection.py")

#: Names anchoring the declarative table in connection.py.
STATES_NAME = "SESSION_STATES"
TRANSITIONS_NAME = "SESSION_TRANSITIONS"
SET_STATE_METHOD = "_set_state"
SESSION_CLASS = "PeerSession"

#: The state in which counting traffic flows.
ESTABLISHED_STATE = "ESTABLISHED"

#: Administrative events excluded from liveness exploration (the
#: operator stopping a session is not a protocol deadlock).
ADMIN_EVENTS = frozenset({"stop", "drained"})


@dataclass
class SessionFsm:
    """Everything extracted from connection.py."""

    states: Tuple[str, ...] = ()
    states_line: int = 1
    #: Declared ``(state, event) -> next state``.
    transitions: Dict[Tuple[str, str], str] = field(default_factory=dict)
    transitions_line: int = 1
    #: Implemented ``(event, to_state) -> [(method, line), ...]``.
    implemented: Dict[Tuple[str, str], List[Tuple[str, int]]] = field(
        default_factory=dict
    )

    @property
    def initial(self) -> str:
        return self.states[0] if self.states else "CLOSED"

    def declared_pairs(self) -> Dict[Tuple[str, str], List[str]]:
        """Non-self-loop ``(event, to) -> [from_state, ...]`` projection.

        FSM004 compares this against :attr:`implemented`; keeping the
        source states lets findings name complete edges.
        """
        pairs: Dict[Tuple[str, str], List[str]] = {}
        for (state, event), target in sorted(self.transitions.items()):
            if target != state:
                pairs.setdefault((event, target), []).append(state)
        return pairs


def _parse(
    root: Path, relative: Path, overrides: Dict[str, str]
) -> Optional[ast.Module]:
    key = str(relative)
    if key in overrides:
        return ast.parse(overrides[key], filename=key)
    path = root / relative
    if not path.is_file():
        return None
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _string_constants(module: ast.Module) -> Dict[str, str]:
    """Module-level ``NAME = "literal"`` assignments (the ST_* table)."""
    constants: Dict[str, str] = {}
    for node in module.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            constants[node.targets[0].id] = node.value.value
    return constants


def _resolve(node: ast.expr, constants: Dict[str, str]) -> Optional[str]:
    """A string literal, or a Name bound to one at module level."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return constants.get(node.id)
    return None


def _assigned_value(
    module: ast.Module, name: str
) -> Tuple[Optional[ast.expr], int]:
    """The value expression (and line) assigned to module-level ``name``."""
    for node in module.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == name:
                value = node.value
                assert value is not None
                return value, node.lineno
    return None, 1


def _extract_transitions(
    value: ast.expr, constants: Dict[str, str]
) -> Dict[Tuple[str, str], str]:
    transitions: Dict[Tuple[str, str], str] = {}
    if not isinstance(value, ast.Dict):
        return transitions
    for key, target in zip(value.keys, value.values):
        if not isinstance(key, ast.Tuple) or len(key.elts) != 2:
            continue
        state = _resolve(key.elts[0], constants)
        event = _resolve(key.elts[1], constants)
        to = _resolve(target, constants)
        if state is not None and event is not None and to is not None:
            transitions[(state, event)] = to
    return transitions


def _extract_implemented(
    module: ast.Module, constants: Dict[str, str]
) -> Dict[Tuple[str, str], List[Tuple[str, int]]]:
    """Every ``self._set_state(event, STATE)`` call site in PeerSession."""
    implemented: Dict[Tuple[str, str], List[Tuple[str, int]]] = {}
    session: Optional[ast.ClassDef] = None
    for node in ast.walk(module):
        if isinstance(node, ast.ClassDef) and node.name == SESSION_CLASS:
            session = node
            break
    if session is None:
        return implemented
    for method in session.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(method):
            if not (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == SET_STATE_METHOD
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id == "self"
                and len(call.args) == 2
            ):
                continue
            event = _resolve(call.args[0], constants)
            state = _resolve(call.args[1], constants)
            if event is not None and state is not None:
                implemented.setdefault((event, state), []).append(
                    (method.name, call.lineno)
                )
    return implemented


def extract_session_fsm(
    root: Path, overrides: Optional[Dict[str, str]] = None
) -> Optional[SessionFsm]:
    """Read declared table + implemented edges.

    Returns None when connection.py is absent (linting a foreign tree).
    """
    overrides = overrides or {}
    connection = _parse(root, CONNECTION_PATH, overrides)
    if connection is None:
        return None
    constants = _string_constants(connection)
    fsm = SessionFsm()

    states_value, fsm.states_line = _assigned_value(connection, STATES_NAME)
    if isinstance(states_value, (ast.Tuple, ast.List)):
        resolved = [_resolve(elt, constants) for elt in states_value.elts]
        fsm.states = tuple(state for state in resolved if state is not None)

    table_value, fsm.transitions_line = _assigned_value(
        connection, TRANSITIONS_NAME
    )
    if table_value is not None:
        fsm.transitions = _extract_transitions(table_value, constants)
    fsm.implemented = _extract_implemented(connection, constants)
    return fsm


def _edge(state: str, event: str, to: str) -> str:
    return f"{state} --{event}--> {to}"


def check_fsm_tables(fsm: SessionFsm) -> List[Finding]:
    """FSM004 over one extracted surface."""
    findings: List[Finding] = []
    connection = str(CONNECTION_PATH)

    if not fsm.transitions:
        findings.append(
            Finding(
                path=connection,
                line=fsm.transitions_line,
                col=1,
                rule="FSM004",
                message=(
                    f"no {TRANSITIONS_NAME} table found: the session "
                    "lifecycle is undeclared and cannot be checked"
                ),
                hint=(
                    "declare the (state, event) -> state dict at module "
                    "level in connection.py"
                ),
            )
        )
        return findings

    # FSM004: declared vs implemented (self-loops exempt).
    declared = fsm.declared_pairs()
    for (event, to), sources in sorted(declared.items()):
        if (event, to) not in fsm.implemented:
            edges = ", ".join(_edge(s, event, to) for s in sources)
            findings.append(
                Finding(
                    path=connection,
                    line=fsm.transitions_line,
                    col=1,
                    rule="FSM004",
                    message=(
                        f"declared transition {edges} is not implemented: "
                        f"no self.{SET_STATE_METHOD}({event!r}, ...) call "
                        f"in {SESSION_CLASS}"
                    ),
                    hint=(
                        "add the _set_state call where the lifecycle takes "
                        "this edge, or delete the stale table row"
                    ),
                )
            )
    for (event, to), sites in sorted(fsm.implemented.items()):
        if (event, to) in declared:
            continue
        if fsm.transitions.get((to, event)) == to:
            continue  # a declared self-loop; the call site is optional
        for method, line in sites:
            findings.append(
                Finding(
                    path=connection,
                    line=line,
                    col=1,
                    rule="FSM004",
                    message=(
                        f"{SESSION_CLASS}.{method} implements undeclared "
                        f"transition --{event}--> {to}: no matching row in "
                        f"{TRANSITIONS_NAME}"
                    ),
                    hint=(
                        "declare the edge in the table (and let the model "
                        "checker explore it), or fix the call site"
                    ),
                )
            )
    return findings
