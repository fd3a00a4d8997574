"""Per-device flight recorder: bounded forensic event log + causal chains.

Aggregate metrics (:mod:`repro.obs.metrics`) say *that* a verdict
flipped, not *why*.  The :class:`FlightRecorder` is the evidence layer,
and the only record the hot path writes: every device keeps a fixed-size
ring buffer of typed events -- frame rx/tx, CIB deltas, verdict
transitions, session-FSM edges, link/admin events -- each stamped with
the device's Lamport logical clock (carried in every DVM frame header,
see :mod:`repro.dvm.messages`) plus local monotonic time.  The ring is
allocation-light (one small dict per event, no locks, no I/O) so it can
stay on in production; when it wraps, old events are evicted and the
dump says exactly how many (``dropped``) -- loss is always visible,
never silent.

Causality is explicit, not inferred: while a device processes an
incoming frame (or an admin operation), the recorder carries that
event's sequence number as the *current cause*, so every event recorded
inside the handler -- including the frames it sends out -- points back
at what triggered it.  Across devices, a received frame is matched to
the peer's send by the frame's Lamport clock (each sender stamps a
strictly increasing clock, so ``(sender, clock)`` is unique).  Walking
``cause`` edges and tx/rx matches from a verdict event back to the
triggering FIB update yields the shortest causal chain --
``python -m repro explain`` renders it (see ``docs/OBSERVABILITY.md``).

Dumps from many devices (collected over ``/debug/flight``, the
``dump_flight`` fleet op, or in-process) merge into one causally
ordered log: events sort by ``(lamport, device, seq)``, which respects
the happens-before partial order because every receive observes the
sender's clock first.

The recorder also keeps bounded anomaly snapshots: on a verdict flip to
violation or a peer loss, the tail of the ring is copied aside so the
evidence survives further wrapping.

The same merged log is the trace: the driver that times a step writes
``start`` / ``dur`` onto the step's own event (:meth:`FlightRecorder
.annotate`), the backend records each operation window as an ``op``
event, and :func:`records_from_flight` turns the log into the span /
instant records ``repro trace`` exports -- a ``frame_rx`` span's parent
is the step behind the matching ``frame_tx``, by the same join.
"""

from __future__ import annotations

import itertools
import time
from bisect import bisect_right
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.trace import (
    CAT_OP,
    CAT_RUNTIME,
    CAT_SESSION,
    CAT_SIM,
    CAT_VERIFY,
    KIND_EVENT,
    KIND_SPAN,
    TraceRecord,
)

__all__ = [
    "FlightRecorder",
    "LamportClock",
    "NULL_RECORDER",
    "causal_chain",
    "chain_signature",
    "describe_unplanned",
    "find_verdict",
    "install_group",
    "merge_dumps",
    "records_from_flight",
    "render_chain",
    "render_timeline",
    "unplanned_scene",
]

Event = Dict[str, Any]


class LamportClock:
    """One device's logical clock (Lamport 1978).

    ``tick()`` before stamping an outgoing frame; ``observe()`` with the
    frame clock of every received frame.  The value is strictly
    increasing per device, so ``(device, clock)`` uniquely names a send
    -- that is what lets a receiver's ``frame_rx`` event be matched to
    the sender's ``frame_tx`` event in a merged dump.
    """

    __slots__ = ("value",)

    def __init__(self, value: int = 0) -> None:
        self.value = value

    def tick(self) -> int:
        self.value += 1
        return self.value

    def observe(self, remote: int) -> int:
        if remote > self.value:
            self.value = remote
        self.value += 1
        return self.value


class FlightRecorder:
    """Fixed-size ring buffer of typed forensic events for one device.

    Appends are a dict build plus one list-slot store -- safe against a
    concurrent :meth:`dump` because each slot is replaced wholesale (a
    reader sees either the old event or the new one, never a torn
    write) and every event self-identifies with its sequence number, so
    a dump skips and *counts* any slot overwritten mid-iteration
    (``missing``) instead of emitting a wrong event.

    A disabled recorder (``enabled=False``, or :data:`NULL_RECORDER`)
    still owns a working :class:`LamportClock`: clock stamping is
    unconditional in both backends so the wire traffic is byte-for-byte
    identical whether or not anyone is recording.
    """

    #: Events copied aside per anomaly snapshot (tail of the ring).
    SNAPSHOT_TAIL = 128

    def __init__(
        self,
        device: str = "",
        *,
        capacity: int = 512,
        enabled: bool = True,
        backend: str = "",
        monotonic: Optional[Callable[[], float]] = None,
        max_snapshots: int = 4,
    ) -> None:
        self.device = device
        self.enabled = enabled
        self.capacity = max(1, int(capacity))
        self.backend = backend
        self.clock = LamportClock()
        self.max_snapshots = max(1, int(max_snapshots))
        self.snapshots: List[Event] = []
        self._monotonic = monotonic if monotonic is not None else time.monotonic
        self._buf: List[Optional[Event]] = [None] * self.capacity
        self._seq = 0
        self._cause: Optional[int] = None

    @property
    def next_seq(self) -> int:
        """Sequence number the next recorded event will get."""
        return self._seq

    # -- cause threading ---------------------------------------------------

    def set_cause(self, seq: Optional[int]) -> None:
        """Events recorded until :meth:`clear_cause` point at ``seq``.

        Backends set this to the ``frame_rx`` (or admin) event's seq
        around the handler invocation it triggers, so CIB deltas,
        verdict transitions, and outgoing frames all carry an explicit
        ``cause`` edge instead of a guessed temporal one.
        """
        self._cause = seq if seq is not None and seq >= 0 else None

    def clear_cause(self) -> None:
        self._cause = None

    # -- recording ---------------------------------------------------------

    def record(self, etype: str, **fields: Any) -> int:
        """Append one event; returns its seq (-1 when disabled)."""
        if not self.enabled:
            return -1
        seq = self._seq
        event: Event = {
            "seq": seq,
            "device": self.device,
            "etype": etype,
            "lamport": self.clock.value,
            "t": self._monotonic(),
        }
        if self._cause is not None:
            event["cause"] = self._cause
        if fields:
            event.update(fields)
        self._buf[seq % self.capacity] = event
        self._seq = seq + 1
        return seq

    def annotate(self, seq: int, **fields: Any) -> None:
        """Add ``fields`` to event ``seq`` if the ring still holds it.

        The slot is replaced, not mutated, so an event a dump already
        handed out never changes under its reader.
        """
        index = seq % self.capacity
        slot = self._buf[index]
        if slot is not None and slot["seq"] == seq:
            self._buf[index] = {**slot, **fields}

    def snapshot(self, reason: str, **fields: Any) -> Optional[Event]:
        """Copy the ring tail aside so anomaly evidence survives wrap."""
        if not self.enabled:
            return None
        tail = self.dump(limit=self.SNAPSHOT_TAIL)
        snap: Event = {
            "reason": reason,
            "seq": self._seq,
            "t": self._monotonic(),
            "events": tail["events"],
        }
        if fields:
            snap.update(fields)
        self.snapshots.append(snap)
        del self.snapshots[: -self.max_snapshots]
        return snap

    # -- dumping -----------------------------------------------------------

    def dump(self, limit: Optional[int] = None) -> Event:
        """One JSON-ready dump with explicit truncation accounting.

        ``dropped`` counts events already evicted by ring wrap;
        ``missing`` counts slots torn by an append racing this dump.
        Both are zero on a quiet recorder -- any loss is declared.
        """
        end = self._seq
        start = max(0, end - self.capacity)
        dropped = start
        if limit is not None:
            start = max(start, end - max(0, limit))
        events: List[Event] = []
        missing = 0
        for seq in range(start, end):
            slot = self._buf[seq % self.capacity]
            if slot is None or slot.get("seq") != seq:
                missing += 1
                continue
            events.append(slot)
        return {
            "device": self.device,
            "backend": self.backend,
            "capacity": self.capacity,
            "next_seq": end,
            "dropped": dropped,
            "missing": missing,
            "truncated": bool(dropped or missing),
            "events": events,
            "snapshots": list(self.snapshots),
        }


#: Shared disabled recorder: the default hook value everywhere, so the
#: hot paths pay one attribute load + branch when forensics are off.
NULL_RECORDER = FlightRecorder(device="", capacity=1, enabled=False)


# ---------------------------------------------------------------------------
# merging per-device dumps into one causally ordered log


def _iter_dumps(obj: Any) -> Iterator[Event]:
    """Yield every per-device dump inside ``obj``.

    Accepts a single dump, a ``device -> dump`` mapping (the fleet
    ``dump_flight`` shape), a list of either, or an already merged
    document -- nested arbitrarily, so ``repro explain --dump`` can take
    whatever a collection pipeline produced.
    """
    if isinstance(obj, dict):
        if isinstance(obj.get("events"), list):
            yield obj
        else:
            for value in obj.values():
                yield from _iter_dumps(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _iter_dumps(value)


def merge_dumps(*dumps: Any) -> Event:
    """Merge per-device dumps into one causally ordered event log.

    Events sort by ``(lamport, device, seq)`` -- consistent with the
    happens-before partial order, because a frame's receiver observes
    the sender's clock before recording.  Duplicate ``(device, seq)``
    pairs (the same dump merged twice) collapse to one event.
    ``devices`` lists the named recorders (a backend's own operation
    ring has no device name); ``backend`` is the dumps' common backend
    label, empty when they disagree.
    """
    events: List[Event] = []
    devices = set()
    backends = set()
    snapshots: Dict[str, List[Event]] = {}
    dropped = 0
    missing = 0
    for dump in _iter_dumps(dumps):
        for event in dump.get("events", []):
            if isinstance(event, dict):
                events.append(event)
                devices.add(str(event.get("device", "")))
        if dump.get("device"):
            devices.add(str(dump["device"]))
            snaps = dump.get("snapshots") or []
            if snaps:
                snapshots.setdefault(str(dump["device"]), []).extend(snaps)
        backends.add(str(dump.get("backend", "")))
        dropped += int(dump.get("dropped", 0) or 0)
        missing += int(dump.get("missing", 0) or 0)
    events.sort(
        key=lambda event: (
            int(event.get("lamport", 0) or 0),
            str(event.get("device", "")),
            int(event.get("seq", 0) or 0),
        )
    )
    seen = set()
    unique: List[Event] = []
    for event in events:
        key = (event.get("device"), event.get("seq"))
        if key in seen:
            continue
        seen.add(key)
        unique.append(event)
    return {
        "devices": sorted(devices - {""}),
        "backend": backends.pop() if len(backends) == 1 else "",
        "events": unique,
        "dropped": dropped,
        "missing": missing,
        "truncated": bool(dropped or missing),
        "snapshots": snapshots,
    }


# ---------------------------------------------------------------------------
# causal-chain reconstruction (the `repro explain` engine)


def _events_of(merged: Any) -> List[Event]:
    if isinstance(merged, dict):
        return list(merged.get("events", []))
    return list(merged)


def _tx_index(events: Sequence[Event]) -> Dict[Tuple[Any, Any, Any], Event]:
    """``frame_tx`` events by ``(sender, peer, clock)``: each sender's
    clock is strictly increasing, so the key names one send and a
    ``frame_rx`` ``(peer, device, clock)`` joins to it."""
    return {
        (event.get("device"), event.get("peer"), event.get("clock")): event
        for event in events
        if event.get("etype") == "frame_tx"
    }


def install_group(merged: Any, plan: str) -> str:
    """The id ``plan`` was last installed under: plans that give the
    devices the same tasks install as one group, named by its first
    member, and its ``install`` records list the ``members``."""
    group = plan
    for event in _events_of(merged):
        if event.get("etype") == "admin" and plan in (event.get("members") or ()):
            group = str(event.get("detail", plan))
    return group


def find_verdict(
    merged: Any,
    device: Optional[str] = None,
    plan: Optional[str] = None,
) -> Optional[Event]:
    """The chain target: the last event that made a plan not hold.

    That is a verdict that flipped to *violated* or an ``unplanned``
    scene (that is the event an operator is explaining); failing both,
    the last verdict transition of any polarity.  ``plan`` may name any
    member of an install group (:func:`install_group`).
    """
    if plan is not None:
        plan = install_group(merged, plan)
    last_any: Optional[Event] = None
    last_bad: Optional[Event] = None
    for event in _events_of(merged):
        etype = event.get("etype")
        if etype not in ("verdict", "unplanned"):
            continue
        if device is not None and event.get("device") != device:
            continue
        if plan is not None and event.get("plan") != plan:
            continue
        if etype == "verdict":
            last_any = event
        if etype == "unplanned" or event.get("holds") is False:
            last_bad = event
    return last_bad if last_bad is not None else last_any


def unplanned_scene(merged: Any, plan: str) -> Dict[str, List[str]]:
    """``device -> failed links`` of the last ``unplanned`` event each
    device recorded for ``plan`` (an install group's id)."""
    scene: Dict[str, List[str]] = {}
    for event in _events_of(merged):
        if event.get("etype") == "unplanned" and event.get("plan") == plan:
            scene[str(event.get("device", ""))] = list(event.get("links") or ())
    return scene


def describe_unplanned(scene: Mapping[str, Iterable[str]]) -> str:
    """How a plan on an unplanned scene reads, from ``device -> failed
    links`` (each ``"a-b"``)."""
    links = sorted({link for failed in scene.values() for link in failed})
    return (
        f"UNKNOWN: unplanned scene {{{', '.join(links)}}} at "
        f"{', '.join(sorted(scene))}"
    )


def causal_chain(
    merged: Any,
    device: Optional[str] = None,
    plan: Optional[str] = None,
    target: Optional[Event] = None,
) -> List[Event]:
    """Shortest causal chain from the triggering event to a verdict.

    Walks backwards from ``target`` (default: :func:`find_verdict`):
    ``cause`` edges stay on-device; a ``frame_rx`` hops to the peer's
    matching ``frame_tx`` via the frame's Lamport clock.  The walk ends
    at an event with no cause -- normally the admin event (FIB update,
    plan install, link event) that started the cascade -- or at a
    truncation boundary.  Returned oldest-first (origin -> verdict).
    """
    events = _events_of(merged)
    by_key: Dict[Tuple[Any, Any], Event] = {
        (event.get("device"), event.get("seq")): event for event in events
    }
    tx_index = _tx_index(events)
    if target is None:
        target = find_verdict(merged, device=device, plan=plan)
    if target is None:
        return []
    chain = [target]
    visited = {(target.get("device"), target.get("seq"))}
    current = target
    while True:
        following: Optional[Event] = None
        if current.get("etype") == "frame_rx":
            # Cross-device hop: the peer's matching send.
            following = tx_index.get(
                (current.get("peer"), current.get("device"), current.get("clock"))
            )
        if following is None:
            cause = current.get("cause")
            if cause is None:
                break
            following = by_key.get((current.get("device"), cause))
        if following is None:
            break  # cause fell off a truncated ring: chain ends here
        key = (following.get("device"), following.get("seq"))
        if key in visited:
            break
        visited.add(key)
        chain.append(following)
        current = following
    chain.reverse()
    return chain


def chain_signature(chain: Sequence[Event]) -> List[Tuple[str, str, str]]:
    """Backend-independent shape of a chain: ``(device, etype, detail)``.

    Lamport clock values and wall times differ between the simulator
    and the runtime (keepalives tick the clock), so parity tests
    compare this signature, not raw events.
    """
    signature: List[Tuple[str, str, str]] = []
    for event in chain:
        etype = str(event.get("etype", ""))
        if etype in ("frame_tx", "frame_rx"):
            detail = str(event.get("kind", ""))
        elif etype == "verdict":
            detail = f"holds={event.get('holds')}"
        elif etype == "session":
            detail = str(event.get("event", ""))
        elif etype in ("admin", "peer_down"):
            detail = str(event.get("kind", event.get("peer", "")))
        else:
            detail = ""
        signature.append((str(event.get("device", "")), etype, detail))
    return signature


# ---------------------------------------------------------------------------
# derived traces (the `repro trace` engine)

#: Fields every event has, or that place it in time and causality; the
#: rest is its payload (a derived record's ``attrs``).
_STRUCTURAL = ("seq", "device", "etype", "lamport", "t", "cause", "start", "dur")

#: The events a :class:`~repro.dvm.agent.Step` runs for: one span each.
_STEPS = ("admin", "frame_rx", "peer_down")

#: Category of the instant derived from an event (default: the steps').
_INSTANT_CATS = {
    "cib_delta": CAT_VERIFY,
    "verdict": CAT_VERIFY,
    "session": CAT_SESSION,
    "handshake_failed": CAT_SESSION,
}


def records_from_flight(*dumps: Any) -> List[TraceRecord]:
    """The span / instant trace of a (merged) flight log.

    * every step event (``admin`` / ``frame_rx`` / ``peer_down``) is a
      span over the ``start`` / ``dur`` its driver annotated (zero
      length at ``t`` when none did).  A ``frame_rx`` span's parent is
      the step behind the matching ``frame_tx`` -- on another device --
      and an injected ``admin`` span's is its operation;
    * every ``op`` event is an operation span with
      ``convergence_seconds``, plus a ``quiescence`` instant parented to
      it at the time the backend closed the window;
    * every other event but ``frame_tx`` (the join, not a record) is an
      instant parented to the step that caused it.

    Records carry the trace id of the last operation opened before
    them.  A parent that fell off a ring is ``None``, never dangling.
    """
    merged = merge_dumps(*dumps)
    events = [e for e in merged["events"] if e.get("etype") != "frame_tx"]
    step_cat = CAT_SIM if merged["backend"] == "simulator" else CAT_RUNTIME
    ids = {
        (event.get("device"), event.get("seq")): number
        for number, event in enumerate(events, start=1)
    }
    extra_ids = itertools.count(len(events) + 1)
    tx_index = _tx_index(merged["events"])
    ops = sorted(
        (event for event in events if event.get("etype") == "op"),
        key=lambda event: float(event.get("start", 0.0)),
    )
    op_starts = [float(op.get("start", 0.0)) for op in ops]
    op_ids = [ids[(op.get("device"), op.get("seq"))] for op in ops]
    op_number = {ident: number for number, ident in enumerate(op_ids)}

    records: List[TraceRecord] = []
    for event in events:
        etype = str(event.get("etype", ""))
        device = str(event.get("device", ""))
        ident = ids[(event.get("device"), event.get("seq"))]
        at = float(event.get("t", 0.0))
        start = float(event.get("start", at))
        end = start + float(event.get("dur", 0.0))
        number = op_number.get(ident, bisect_right(op_starts, at) - 1)
        trace_id = (
            f"op{number + 1}:{ops[number].get('label', '')}" if number >= 0 else ""
        )
        if etype == "op":
            closed = max(at, end)
            records.append(
                TraceRecord(
                    KIND_SPAN, str(event.get("label", etype)), CAT_OP, device,
                    trace_id, ident, None, start, end,
                    {"convergence_seconds": event.get("dur", 0.0)},
                )
            )
            records.append(
                TraceRecord(
                    KIND_EVENT, "quiescence", step_cat, device, trace_id,
                    next(extra_ids), ident, closed, closed,
                )
            )
            continue
        source: Optional[Event] = event
        if etype == "frame_rx":
            source = tx_index.get(
                (event.get("peer"), event.get("device"), event.get("clock"))
            )
        parent: Optional[int] = None
        if source is not None and source.get("cause") is not None:
            parent = ids.get((source.get("device"), source.get("cause")))
        attrs = {k: v for k, v in event.items() if k not in _STRUCTURAL}
        if etype in _STEPS:
            if etype == "frame_rx":
                name = f"recv {event.get('kind', '?')}"
            else:
                name = str(event.get("step", etype))
                if parent is None and etype == "admin" and number >= 0:
                    parent = op_ids[number]
            records.append(
                TraceRecord(
                    KIND_SPAN, name, step_cat, device, trace_id,
                    ident, parent, start, end, attrs,
                )
            )
        else:
            name = etype or "event"
            if etype == "session":
                name = f"session.{event.get('event', '?')}"
            records.append(
                TraceRecord(
                    KIND_EVENT, name, _INSTANT_CATS.get(etype, step_cat),
                    device, trace_id, ident, parent, at, at, attrs,
                )
            )
    return records


# ---------------------------------------------------------------------------
# rendering (the `repro explain` output)


def _summarize(event: Event) -> str:
    etype = event.get("etype")
    if etype == "frame_tx":
        return (
            f"{event.get('kind', '?')} -> {event.get('peer', '?')} "
            f"(clock {event.get('clock', '?')}, plan {event.get('plan') or '-'})"
        )
    if etype == "frame_rx":
        return (
            f"{event.get('kind', '?')} <- {event.get('peer', '?')} "
            f"(clock {event.get('clock', '?')}, plan {event.get('plan') or '-'})"
        )
    if etype == "cib_delta":
        return (
            f"plan {event.get('plan', '?')} link "
            f"{event.get('up', '?')}<-{event.get('down', '?')}: "
            f"{event.get('results', 0)} result(s), "
            f"{event.get('withdrawn', 0)} withdrawn"
        )
    if etype == "verdict":
        previous = event.get("prev")
        was = "init" if previous is None else f"was {previous}"
        return (
            f"plan {event.get('plan', '?')} node {event.get('node', '?')}: "
            f"holds={event.get('holds')} ({was})"
        )
    if etype == "session":
        return (
            f"{event.get('event', '?')} -> {event.get('state', '?')} "
            f"(peer {event.get('peer', '?')})"
        )
    if etype == "peer_down":
        return f"peer {event.get('peer', '?')} lost"
    if etype == "admin":
        detail = event.get("detail", "")
        return f"{event.get('kind', '?')}" + (f" {detail}" if detail else "")
    if etype == "op":
        return f"{event.get('label', '?')} converged in {event.get('dur', '?')} s"
    if etype == "unplanned":
        return (
            f"plan {event.get('plan', '?')}: failed links "
            f"{{{', '.join(event.get('links') or ())}}} match no planned scene"
        )
    extra = {
        key: value
        for key, value in event.items()
        if key not in _STRUCTURAL
    }
    return " ".join(f"{key}={value}" for key, value in sorted(extra.items()))


def render_chain(chain: Sequence[Event]) -> str:
    """Human-readable causal chain, oldest first, one hop per line."""
    if not chain:
        return "(no causal chain found)"
    width = max(len(str(event.get("device", ""))) for event in chain)
    lines = []
    for index, event in enumerate(chain, start=1):
        lines.append(
            f"{index:3d}. [{str(event.get('device', '')):<{width}}] "
            f"{str(event.get('etype', '?')):<10} {_summarize(event)} "
            f"(lamport {event.get('lamport', '?')})"
        )
    return "\n".join(lines)


def render_timeline(merged: Any, limit: Optional[int] = None) -> str:
    """The full merged convergence timeline, causally ordered."""
    events = _events_of(merged)
    skipped = 0
    if limit is not None and len(events) > limit:
        skipped = len(events) - limit
        events = events[-limit:]
    if not events:
        return "(no events)"
    width = max(len(str(event.get("device", ""))) for event in events)
    lines = []
    if skipped:
        lines.append(f"... {skipped} earlier event(s) elided ...")
    for event in events:
        cause = event.get("cause")
        cause_note = f" <-#{cause}" if cause is not None else ""
        lines.append(
            f"@{event.get('lamport', 0):>6} "
            f"[{str(event.get('device', '')):<{width}}] "
            f"#{event.get('seq', 0):<5} "
            f"{str(event.get('etype', '?')):<10} "
            f"{_summarize(event)}{cause_note}"
        )
    return "\n".join(lines)
