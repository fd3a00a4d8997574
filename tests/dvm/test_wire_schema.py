"""What else is read off the wire schema (``repro.dvm.messages.ROWS``):
the protocol document, the verifier's dispatch and the session FSM each
name every frame kind, and are compared here with the rows themselves.
"""

import re
from pathlib import Path

from repro.dvm.messages import ROWS
from repro.dvm.verifier import OnDeviceVerifier
from repro.runtime.connection import SESSION_TRANSITIONS, ST_ESTABLISHED

PROTOCOL_MD = Path(__file__).resolve().parents[2] / "docs" / "PROTOCOL.md"


def documented_layouts():
    """``{type: [(field, type column), ...]}`` from the ``field | type``
    table under each ``## NAME (n)`` heading (``## A (1) / B (2)`` is
    one table for two kinds)."""
    layouts = {}
    for section in PROTOCOL_MD.read_text(encoding="utf-8").split("\n## ")[1:]:
        heading, _, body = section.partition("\n")
        cells = [
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in body.splitlines()
            if line.startswith("|")
        ]
        fields = [(row[0], row[1]) for row in cells[2:]]  # header, rule
        for name, number in re.findall(r"(\w+) \((\d+)\)", heading):
            layouts[int(number)] = (name, fields)
    return layouts


def test_protocol_md_tables_are_the_rows():
    assert documented_layouts() == {
        row.type: (row.name, [(name, codec.doc) for name, codec in row.fields])
        for row in ROWS.values()
    }


def test_every_frame_kind_has_a_verifier_handler():
    assert set(OnDeviceVerifier._HANDLERS) == {row.cls for row in ROWS.values()}


def test_every_frame_kind_has_a_session_event_and_no_other():
    handled = {
        event
        for state, event in SESSION_TRANSITIONS
        if state == ST_ESTABLISHED and event.startswith("rx_")
    }
    assert handled == {row.event for row in ROWS.values()}
