"""The trace record: what ``repro trace`` writes, one per span or instant.

Nothing records these while the system runs.  The one hot-path record is
the flight recorder's event stream (:mod:`repro.obs.flight`);
:func:`repro.obs.flight.records_from_flight` derives the records from
its dumps:

* **spans** -- named intervals with a device, a start/end timestamp, an
  id, and an optional parent id.  Parent links express causality: the
  span that processes a DVM message points at the span that *emitted*
  it, across devices -- so a trace of one verification session renders
  as the propagation wave itself (the diameter-not-size picture of the
  paper's §6 analysis).
* **events** -- zero-duration instants (quiescence detected, a session
  FSM edge, a verdict transition).

Timestamps are the recorders' own: simulation seconds on the simulator,
host-monotonic seconds on the runtime and the fleet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["TraceRecord"]

#: Record kinds.
KIND_SPAN = "span"
KIND_EVENT = "event"

#: Record categories (the Chrome event's ``cat``).
CAT_VERIFY = "verify"  # CIB deltas and verdict transitions
CAT_SIM = "sim"  # simulator device steps
CAT_RUNTIME = "runtime"  # runtime / fleet device steps
CAT_SESSION = "session"  # handshake / session FSM lifecycle
CAT_OP = "op"  # workload operations (injection -> quiescence)


@dataclass
class TraceRecord:
    """One span or instant event."""

    kind: str
    name: str
    cat: str
    device: str
    trace_id: str
    span_id: int
    parent_id: Optional[int]
    start: float
    end: float
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)
