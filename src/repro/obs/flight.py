"""Per-device flight recorder: bounded forensic event log + causal chains.

Aggregate metrics (:mod:`repro.obs.metrics`) and spans
(:mod:`repro.obs.trace`) say *that* a verdict flipped; neither says
*why*.  The :class:`FlightRecorder` is the missing evidence layer: every
device keeps a fixed-size ring buffer of typed events -- frame rx/tx,
CIB deltas, verdict transitions, session-FSM edges, link/admin events --
each stamped with the device's Lamport logical clock (carried in every
DVM frame header, see :mod:`repro.dvm.messages`) plus local monotonic
time.  The ring is allocation-light (one small dict per event, no
locks, no I/O) so it can stay on in production; when it wraps, old
events are evicted and the dump says exactly how many (``dropped``) --
loss is always visible, never silent.

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
violation, a peer loss, or a collector stall alert, the tail of the
ring is copied aside so the evidence survives further wrapping.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "FlightRecorder",
    "LamportClock",
    "NULL_RECORDER",
    "causal_chain",
    "chain_signature",
    "find_verdict",
    "merge_dumps",
    "render_chain",
    "render_timeline",
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
#: hot paths pay one attribute load + branch when forensics are off
#: (mirrors ``NULL_TRACER`` in :mod:`repro.obs.trace`).
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
    """
    events: List[Event] = []
    devices = set()
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
        "devices": sorted(devices),
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


def find_verdict(
    merged: Any,
    device: Optional[str] = None,
    plan: Optional[str] = None,
) -> Optional[Event]:
    """The chain target: the last matching verdict transition.

    Prefers the last verdict that flipped to *violated* (that is the
    event an operator is explaining); falls back to the last verdict
    transition of any polarity.
    """
    last_any: Optional[Event] = None
    last_violated: Optional[Event] = None
    for event in _events_of(merged):
        if event.get("etype") != "verdict":
            continue
        if device is not None and event.get("device") != device:
            continue
        if plan is not None and event.get("plan") != plan:
            continue
        last_any = event
        if event.get("holds") is False:
            last_violated = event
    return last_violated if last_violated is not None else last_any


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
    tx_index: Dict[Tuple[Any, Any, Any], Event] = {}
    for event in events:
        if event.get("etype") == "frame_tx":
            key = (event.get("device"), event.get("peer"), event.get("clock"))
            tx_index[key] = event
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
    if etype == "snapshot":
        return f"snapshot: {event.get('reason', '?')}"
    extra = {
        key: value
        for key, value in event.items()
        if key not in ("seq", "device", "etype", "lamport", "t", "cause")
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
