"""Session-FSM verification: extraction, drift (FSM004), and the
two-peer-session product model checker (FSM001/FSM002).

Drift is simulated on a copy of ``connection.py`` mutated in memory and
fed to the extractor via ``overrides`` -- the files on disk are never
touched.
"""

from pathlib import Path

import pytest

from repro.checkers import check_fsm_tables, check_model, extract_session_fsm
from repro.checkers.fsm import CONNECTION_PATH
from repro.checkers.modelcheck import explore_product, render_trace

ROOT = Path(__file__).resolve().parents[2]


def _read(relative: Path) -> str:
    return (ROOT / relative).read_text(encoding="utf-8")


def _extract(overrides=None):
    fsm = extract_session_fsm(ROOT, overrides)
    assert fsm is not None
    return fsm


# -- extraction --------------------------------------------------------------


def test_extracts_declared_table_and_call_sites():
    fsm = _extract()
    assert fsm.initial == "CLOSED"
    assert fsm.states == (
        "CLOSED",
        "DIALING",
        "OPEN_SENT",
        "ESTABLISHED",
        "RECONNECTING",
        "DRAINING",
    )
    assert fsm.transitions[("CLOSED", "start")] == "DIALING"
    assert fsm.transitions[("OPEN_SENT", "peer_open")] == "ESTABLISHED"
    # Call sites resolve ST_* constants and record their methods.
    assert ("start", "DIALING") in fsm.implemented
    methods = {m for m, _ in fsm.implemented[("redial", "DIALING")]}
    assert methods == {"_dial_loop"}


def test_shipped_tables_have_no_drift():
    findings = check_fsm_tables(_extract())
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"FSM drift on the shipped tree:\n{rendered}"


# -- FSM004: declared vs implemented -----------------------------------------


def test_fsm004_names_missing_edge_when_call_site_removed():
    # Mutate a fixture copy: the redial call site vanishes, the table
    # still declares RECONNECTING --redial--> DIALING.
    source = _read(CONNECTION_PATH)
    mutated = source.replace(
        'self._set_state("redial", ST_DIALING)', "pass"
    )
    assert mutated != source
    findings = check_fsm_tables(
        _extract({str(CONNECTION_PATH): mutated})
    )
    assert [f.rule for f in findings] == ["FSM004"]
    assert "RECONNECTING --redial--> DIALING" in findings[0].message
    assert "not implemented" in findings[0].message
    assert findings[0].path == str(CONNECTION_PATH)


def test_fsm004_names_extra_edge_when_row_deleted():
    # Inverse drift: the table row is deleted but the code still takes
    # the edge -- the finding points at the call site.
    source = _read(CONNECTION_PATH)
    mutated = source.replace(
        '    (ST_DIALING, "connect_ok"): ST_OPEN_SENT,\n', ""
    )
    assert mutated != source
    findings = check_fsm_tables(
        _extract({str(CONNECTION_PATH): mutated})
    )
    fsm004 = [f for f in findings if f.rule == "FSM004"]
    assert len(fsm004) == 1
    assert "undeclared transition --connect_ok--> OPEN_SENT" in (
        fsm004[0].message
    )
    assert "_dial_loop" in fsm004[0].message


def test_fsm004_self_loops_need_no_call_site():
    # (DIALING, connect_fail) -> DIALING is declared; its call site is
    # optional, so deleting the call must stay clean.
    source = _read(CONNECTION_PATH)
    mutated = source.replace(
        'self._set_state("connect_fail", ST_DIALING)', "pass"
    )
    assert mutated != source
    findings = check_fsm_tables(
        _extract({str(CONNECTION_PATH): mutated})
    )
    assert findings == []


# -- model checking ----------------------------------------------------------


def test_shipped_table_explores_to_fixpoint_without_findings():
    fsm = _extract()
    findings, result = check_model(fsm)
    assert findings == []
    assert result.states_explored > 0
    assert result.transitions_explored > result.states_explored
    assert result.established_reachable
    assert result.deadlocks == []
    assert result.unreachable == []


def test_fsm001_deadlock_with_counterexample_when_redial_dropped():
    # The seeded bug from the issue: removing RECONNECTING --redial-->
    # DIALING leaves both sides stuck after a mutual open_timeout.
    source = _read(CONNECTION_PATH)
    mutated = source.replace(
        '    (ST_RECONNECTING, "redial"): ST_DIALING,\n', ""
    )
    assert mutated != source
    findings, result = check_model(
        _extract({str(CONNECTION_PATH): mutated})
    )
    fsm001 = [f for f in findings if f.rule == "FSM001"]
    assert len(fsm001) == 1
    assert "(RECONNECTING,RECONNECTING)" in fsm001[0].message
    # The counterexample is a full trace from the initial state.
    assert fsm001[0].hint.startswith("counterexample: (CLOSED,CLOSED)")
    assert "open_timeout" in fsm001[0].hint
    (state, steps), = result.deadlocks
    assert state == ("RECONNECTING", "RECONNECTING")
    assert render_trace(result.initial, steps) in fsm001[0].hint


def test_fsm002_orphan_state_is_unreachable():
    source = _read(CONNECTION_PATH)
    mutated = source.replace(
        "    ST_DRAINING,\n)", '    ST_DRAINING,\n    "QUARANTINED",\n)', 1
    )
    assert mutated != source
    findings, _ = check_model(_extract({str(CONNECTION_PATH): mutated}))
    fsm002 = [f for f in findings if f.rule == "FSM002"]
    assert len(fsm002) == 1
    assert "QUARANTINED" in fsm002[0].message


def test_draining_is_reachable_via_admin_events_only():
    # DRAINING is excluded from the liveness product (stop/drained are
    # administrative) but must still count as reachable for FSM002.
    fsm = _extract()
    result = explore_product(fsm)
    assert "DRAINING" not in result.unreachable
    assert all(
        "DRAINING" not in state
        for state, _ in result.deadlocks
    )


def test_product_space_is_small_scope():
    # The point of the declarative table: the space stays exhaustively
    # explorable (|states|^2 bound) on every CI run.
    fsm = _extract()
    result = explore_product(fsm)
    assert result.states_explored <= len(fsm.states) ** 2


def test_missing_table_reports_single_fsm004():
    findings = check_fsm_tables(
        _extract({str(CONNECTION_PATH): "x = 1\n"})
    )
    assert [f.rule for f in findings] == ["FSM004"]
    assert "undeclared" in findings[0].message


def test_foreign_tree_returns_none(tmp_path):
    assert extract_session_fsm(tmp_path) is None
