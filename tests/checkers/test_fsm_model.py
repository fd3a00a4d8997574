"""The two-peer-session product model checker (FSM001/FSM002) over the
table ``PeerSession._fire`` executes.

The model checker takes the imported ``SESSION_STATES`` /
``SESSION_TRANSITIONS``; mutations are mutated *dicts*, not mutated
source text.
"""

import pytest

from repro.checkers import check_model, explore_product
from repro.checkers.modelcheck import CONNECTION_PATH, render_trace
from repro.runtime.connection import (
    SESSION_STATES,
    SESSION_TRANSITIONS,
    PeerSession,
)


def test_fire_raises_on_an_undeclared_edge():
    session = PeerSession.__new__(PeerSession)
    session.state = "DRAINING"
    with pytest.raises(KeyError, match="DRAINING.*redial"):
        session._fire("redial")
    assert session.state == "DRAINING"


def test_shipped_table_explores_to_fixpoint_without_findings():
    findings, result = check_model(SESSION_STATES, SESSION_TRANSITIONS)
    assert findings == []
    assert (result.states_explored, result.transitions_explored) == (23, 82)
    assert result.established_reachable
    assert result.deadlocks == []
    assert result.unreachable == []


def test_fsm001_deadlock_with_counterexample_when_redial_dropped():
    # Removing RECONNECTING --redial--> DIALING leaves both sides stuck
    # after a mutual open_timeout.
    mutated = dict(SESSION_TRANSITIONS)
    del mutated[("RECONNECTING", "redial")]
    findings, result = check_model(SESSION_STATES, mutated, line=7)
    fsm001 = [f for f in findings if f.rule == "FSM001"]
    assert len(fsm001) == 1
    assert (fsm001[0].path, fsm001[0].line) == (str(CONNECTION_PATH), 7)
    assert "(RECONNECTING,RECONNECTING)" in fsm001[0].message
    # The counterexample is a shortest trace from the initial state.
    assert fsm001[0].hint.startswith("counterexample: (CLOSED,CLOSED)")
    assert "open_timeout" in fsm001[0].hint
    (state, steps), = result.deadlocks
    assert state == ("RECONNECTING", "RECONNECTING")
    assert len(steps) == 5  # no shorter path reaches it
    assert render_trace(result.initial, steps) in fsm001[0].hint


def test_fsm002_orphan_state_is_unreachable():
    findings, _ = check_model(
        SESSION_STATES + ("QUARANTINED",), SESSION_TRANSITIONS
    )
    fsm002 = [f for f in findings if f.rule == "FSM002"]
    assert len(fsm002) == 1
    assert "QUARANTINED" in fsm002[0].message


def test_draining_is_reachable_via_admin_events_only():
    # DRAINING is excluded from the liveness product (stop/drained are
    # administrative) but must still count as reachable for FSM002.
    result = explore_product(SESSION_STATES, SESSION_TRANSITIONS)
    assert "DRAINING" not in result.unreachable
    assert all("DRAINING" not in state for state, _ in result.deadlocks)


def test_product_space_is_small_scope():
    # The point of the declarative table: the space stays exhaustively
    # explorable (|states|^2 bound) on every CI run.
    result = explore_product(SESSION_STATES, SESSION_TRANSITIONS)
    assert result.states_explored <= len(SESSION_STATES) ** 2
