"""The trace's one rendering: the Chrome trace (Perfetto).

:func:`to_chrome` converts :class:`~repro.obs.trace.TraceRecord` lists
to the Chrome Trace Event Format (load ``trace.chrome.json`` in Perfetto
/ ``chrome://tracing``): one "thread" per device, ``X`` complete events
for spans, ``i`` instants for events, and ``s``/``f`` flow arrows for
every cross-device parent link -- so a verification session renders as
the propagation wave travelling device to device.  Record timestamps are
seconds on the recorders' clock (simulation seconds on the simulator,
host-monotonic seconds on the runtime); the document carries
microseconds.

:func:`validate_records` checks the records themselves, in memory,
before they are rendered.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence, Union

from repro.obs.trace import KIND_EVENT, KIND_SPAN, TraceRecord

__all__ = ["to_chrome", "validate_records", "write_chrome"]

_KINDS = {KIND_SPAN, KIND_EVENT}


# ----------------------------------------------------------------------
# validation


def validate_records(records: Sequence[TraceRecord]) -> List[str]:
    """Schema errors in ``records`` (empty list == valid).

    Checks id uniqueness, parent references, kind vocabulary and
    non-negative durations -- the invariants the Chrome exporter and the CI
    trace-smoke step rely on.
    """
    errors: List[str] = []
    seen: Dict[int, TraceRecord] = {}
    for index, record in enumerate(records):
        where = f"record {index} ({record.name!r})"
        if record.kind not in _KINDS:
            errors.append(f"{where}: unknown kind {record.kind!r}")
        if record.span_id <= 0:
            errors.append(f"{where}: non-positive id {record.span_id}")
        elif record.span_id in seen:
            errors.append(f"{where}: duplicate id {record.span_id}")
        else:
            seen[record.span_id] = record
        if record.end < record.start:
            errors.append(
                f"{where}: negative duration ({record.start} .. {record.end})"
            )
        if record.kind == KIND_EVENT and record.end != record.start:
            errors.append(f"{where}: event with non-zero duration")
        if not record.name:
            errors.append(f"{where}: empty name")
    for record in records:
        if record.parent_id is not None and record.parent_id not in seen:
            errors.append(
                f"record {record.span_id} ({record.name!r}): dangling "
                f"parent {record.parent_id}"
            )
    return errors


# ----------------------------------------------------------------------
# Chrome trace


def to_chrome(
    records: Sequence[TraceRecord], process_name: str = "tulkun"
) -> Dict[str, object]:
    """Chrome Trace Event Format document for ``records``.

    Devices map to threads (sorted, stable tids); timestamps scale from
    seconds to the format's microseconds.  Cross-device parent links
    become ``s``/``f`` flow arrows keyed by the child's span id.
    """
    devices = sorted({record.device for record in records if record.device})
    tids = {device: index + 1 for index, device in enumerate(devices)}
    by_id = {record.span_id: record for record in records}

    events: List[Dict[str, object]] = [
        {
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "name": "process_name",
            "args": {"name": process_name},
        }
    ]
    for device, tid in tids.items():
        events.append(
            {
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": device},
            }
        )
        events.append(
            {
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "name": "thread_sort_index",
                "args": {"sort_index": tid},
            }
        )

    for record in records:
        tid = tids.get(record.device, 0)
        args: Dict[str, object] = dict(record.attrs)
        if record.trace_id:
            args["trace"] = record.trace_id
        base: Dict[str, object] = {
            "name": record.name,
            "cat": record.cat or "trace",
            "pid": 1,
            "tid": tid,
            "ts": record.start * 1e6,
            "args": args,
        }
        if record.kind == KIND_SPAN:
            base["ph"] = "X"
            base["dur"] = record.duration * 1e6
        else:
            base["ph"] = "i"
            base["s"] = "t"
        events.append(base)
        parent = (
            by_id.get(record.parent_id)
            if record.parent_id is not None
            else None
        )
        if parent is not None and parent.device != record.device:
            # Cross-device causality: draw a flow arrow from the end of
            # the emitting span to the start of this record.
            flow = {
                "cat": "dvm-flow",
                "name": "dvm",
                "pid": 1,
                "id": record.span_id,
            }
            events.append(
                dict(
                    flow,
                    ph="s",
                    tid=tids.get(parent.device, 0),
                    ts=parent.end * 1e6,
                )
            )
            events.append(
                dict(
                    flow,
                    ph="f",
                    bp="e",
                    tid=tid,
                    ts=record.start * 1e6,
                )
            )

    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome(
    records: Sequence[TraceRecord],
    path: Union[str, Path],
    process_name: str = "tulkun",
) -> int:
    """Write the Chrome trace document; returns the trace-event count."""
    document = to_chrome(records, process_name)
    Path(path).write_text(json.dumps(document), encoding="utf-8")
    trace_events = document["traceEvents"]
    assert isinstance(trace_events, list)
    return len(trace_events)
