"""Record validation and the Chrome trace's shape."""

import json

from repro.obs.export import to_chrome, validate_records, write_chrome
from repro.obs.trace import KIND_EVENT, KIND_SPAN, TraceRecord


def span(span_id, name="work", device="A", parent=None, start=0.0, end=1.0):
    return TraceRecord(
        kind=KIND_SPAN,
        name=name,
        cat="sim",
        device=device,
        trace_id="op1:test",
        span_id=span_id,
        parent_id=parent,
        start=start,
        end=end,
    )


def instant(span_id, name="ping", device="A", parent=None, when=0.5):
    return TraceRecord(
        kind=KIND_EVENT,
        name=name,
        cat="sim",
        device=device,
        trace_id="op1:test",
        span_id=span_id,
        parent_id=parent,
        start=when,
        end=when,
    )


def sample_records():
    """A two-device wave: A's span emits to B, plus an instant on B."""
    return [
        span(1, name="install_plan", device="A", end=2.0),
        span(2, name="recv UPDATE", device="B", parent=1, start=2.5, end=3.0),
        instant(3, name="quiescence", device="B", parent=2, when=3.0),
    ]


class TestValidateRecords:
    def test_clean_records_validate(self):
        assert validate_records(sample_records()) == []

    def test_duplicate_and_nonpositive_ids(self):
        errors = validate_records([span(1), span(1), span(0)])
        assert any("duplicate id 1" in error for error in errors)
        assert any("non-positive id 0" in error for error in errors)

    def test_dangling_parent(self):
        errors = validate_records([span(1, parent=99)])
        assert any("dangling parent 99" in error for error in errors)

    def test_negative_duration_and_nonzero_event(self):
        bad_span = span(1, start=5.0, end=1.0)
        bad_event = instant(2)
        bad_event.end = bad_event.start + 0.5
        errors = validate_records([bad_span, bad_event])
        assert any("negative duration" in error for error in errors)
        assert any("non-zero duration" in error for error in errors)

    def test_unknown_kind_and_empty_name(self):
        weird = span(1, name="")
        weird.kind = "gap"
        errors = validate_records([weird])
        assert any("unknown kind 'gap'" in error for error in errors)
        assert any("empty name" in error for error in errors)


class TestChromeTrace:
    def test_devices_become_named_sorted_threads(self):
        document = to_chrome(sample_records(), process_name="tulkun-test")
        events = document["traceEvents"]
        assert document["displayTimeUnit"] == "ms"
        meta = [event for event in events if event["ph"] == "M"]
        names = {
            event["args"]["name"]: event["tid"]
            for event in meta
            if event["name"] == "thread_name"
        }
        assert names == {"A": 1, "B": 2}
        assert any(
            event["name"] == "process_name"
            and event["args"]["name"] == "tulkun-test"
            for event in meta
        )
        assert sum(1 for e in meta if e["name"] == "thread_sort_index") == 2

    def test_spans_events_and_timestamps_scale_to_microseconds(self):
        events = to_chrome(sample_records())["traceEvents"]
        complete = [event for event in events if event["ph"] == "X"]
        instants = [event for event in events if event["ph"] == "i"]
        assert {event["name"] for event in complete} == {
            "install_plan",
            "recv UPDATE",
        }
        recv = next(e for e in complete if e["name"] == "recv UPDATE")
        assert recv["ts"] == 2.5e6
        assert recv["dur"] == 0.5e6
        assert recv["args"]["trace"] == "op1:test"
        (quiescence,) = instants
        assert quiescence["s"] == "t"
        assert "dur" not in quiescence

    def test_cross_device_parents_draw_flow_arrows(self):
        events = to_chrome(sample_records())["traceEvents"]
        starts = [event for event in events if event["ph"] == "s"]
        finishes = [event for event in events if event["ph"] == "f"]
        # Exactly one cross-device hop (A -> B); the B-local instant's
        # parent is same-device, so no second arrow.
        assert len(starts) == len(finishes) == 1
        assert starts[0]["cat"] == finishes[0]["cat"] == "dvm-flow"
        assert starts[0]["id"] == finishes[0]["id"] == 2  # child span id
        assert starts[0]["tid"] == 1 and finishes[0]["tid"] == 2
        assert starts[0]["ts"] == 2.0e6  # leaves at the emitter's end
        assert finishes[0]["ts"] == 2.5e6  # lands at the receiver's start
        assert finishes[0]["bp"] == "e"

    def test_write_chrome_returns_trace_event_count(self, tmp_path):
        records = sample_records()
        path = tmp_path / "trace.chrome.json"
        count = write_chrome(records, path)
        document = json.loads(path.read_text(encoding="utf-8"))
        assert count == len(document["traceEvents"])
