"""Fleet collector: read every agent's status record, alert on trouble.

The runtime backend turns verification into a long-lived distributed
protocol; the :class:`Collector` is the operator-side half of its
telemetry plane.  Given the agents' telemetry endpoints (see
:mod:`repro.obs.serve`), each scrape cycle

* fetches every agent's ``/healthz`` concurrently -- one request per
  agent, whose body is the device's
  :class:`~repro.obs.serve.DeviceStatus` record, traffic counters
  included;
* derives a fleet state -- ``"ok"`` only when every agent answered,
  reported healthy and is not stalled -- and
* raises structured-log alerts on transitions to unreachable or
  degraded.  A device also reads degraded on the scrape where its
  ``decode_errors`` rose since this collector's previous scrape of it,
  and **stalled** when its counting counters stop advancing across
  consecutive scrapes while its convergence phase is still open.  Phase
  and counters come from the same record, sampled in one tick.

``python -m repro top`` renders its snapshots as a live refreshing
table.

:func:`parse_prometheus_text` is the inverse of
``MetricsRegistry.render_text`` for plain samples -- used by the
round-trip tests and the CI live-smoke step to assert the exposition
actually parses (including escaped label values).
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.log import get_logger, kv
from repro.obs.serve import DeviceStatus, http_get

__all__ = [
    "Collector",
    "DeviceSample",
    "FleetSnapshot",
    "parse_prometheus_text",
]

logger = get_logger("obs.collector")

Target = Tuple[str, int]
LabelSet = Tuple[Tuple[str, str], ...]


@dataclass
class DeviceSample:
    """One agent in one scrape cycle: the scrape's facts plus the
    device's status record (``None`` when the scrape failed)."""

    target: Target
    device: str
    status: str  # "ok" | "degraded" | "unreachable"
    http_status: int = 0
    latency_seconds: float = 0.0
    staleness_seconds: float = 0.0
    error: str = ""
    stalled: bool = False
    record: Optional[DeviceStatus] = None


@dataclass
class FleetSnapshot:
    """One scrape cycle over the whole fleet."""

    state: str  # "ok" | "degraded" | "empty"
    samples: List[DeviceSample] = field(default_factory=list)
    #: Alerts fired by *this* cycle (the collector also accumulates
    #: every alert ever fired in ``Collector.alerts``).
    alerts: List[Dict[str, object]] = field(default_factory=list)


class Collector:
    """Scrape a fleet of telemetry endpoints, one cycle per call.

    :meth:`scrape_once` runs one cycle (``repro top`` loops over it).
    State that spans cycles (previous counters, alert transitions,
    staleness) lives on the collector, so one instance should observe
    one fleet over time.
    """

    def __init__(
        self,
        targets: Sequence[Target],
        *,
        timeout: float = 2.0,
        stall_scrapes: int = 2,
    ) -> None:
        self.targets: List[Target] = [
            (str(host), int(port)) for host, port in targets
        ]
        self.timeout = timeout
        #: Consecutive frozen-while-converging scrapes before a stall
        #: alert fires (1 = alert on the first frozen interval).
        self.stall_scrapes = max(1, stall_scrapes)
        self.alerts: List[Dict[str, object]] = []
        self.cycles = 0
        self._device_names: Dict[Target, str] = {}
        self._activity: Dict[str, int] = {}
        self._frozen: Dict[str, int] = {}
        self._decode_errors: Dict[str, int] = {}
        self._status: Dict[str, str] = {}
        self._last_success: Dict[Target, float] = {}
        self._started_at = time.monotonic()

    # -- scraping ----------------------------------------------------------

    async def _scrape_target(self, target: Target) -> DeviceSample:
        host, port = target
        start = time.monotonic()
        try:
            http_status, body = await http_get(
                host, port, "/healthz", timeout=self.timeout
            )
            record = DeviceStatus.from_dict(json.loads(body.decode("utf-8")))
        except (asyncio.TimeoutError, ConnectionError, OSError, ValueError) as exc:
            return DeviceSample(
                target=target,
                device=self._device_names.get(target, f"{host}:{port}"),
                status="unreachable",
                latency_seconds=time.monotonic() - start,
                error=repr(exc),
            )
        self._device_names[target] = record.device
        return DeviceSample(
            target=target,
            device=record.device,
            status=record.status,
            http_status=http_status,
            latency_seconds=time.monotonic() - start,
            record=record,
        )

    async def scrape_once(self) -> FleetSnapshot:
        """One full cycle: scrape all targets, judge, update alerts."""
        samples = list(
            await asyncio.gather(
                *(self._scrape_target(target) for target in self.targets)
            )
        )
        samples.sort(key=lambda sample: sample.device)
        snapshot = FleetSnapshot(state="empty", samples=samples)
        now = time.monotonic()
        for sample in samples:
            if sample.record is not None:
                self._last_success[sample.target] = now
            sample.staleness_seconds = now - self._last_success.get(
                sample.target, self._started_at
            )
            self._detect_decode_errors(sample)
            self._detect_stall(sample, snapshot)
            self._note_transition(sample, snapshot)
        if samples:
            snapshot.state = (
                "ok"
                if all(s.status == "ok" and not s.stalled for s in samples)
                else "degraded"
            )
        self.cycles += 1
        return snapshot

    # -- judging and alerting ----------------------------------------------

    def _detect_decode_errors(self, sample: DeviceSample) -> None:
        """Degraded on the scrape where ``decode_errors`` rose since this
        collector's previous scrape of the device."""
        record = sample.record
        if record is None:
            return
        previous = self._decode_errors.get(sample.device, 0)
        self._decode_errors[sample.device] = record.decode_errors
        if record.decode_errors > previous:
            sample.status = "degraded"

    def _detect_stall(
        self, sample: DeviceSample, snapshot: FleetSnapshot
    ) -> None:
        device = sample.device
        record = sample.record
        if record is None:
            self._frozen[device] = 0  # no data: not a stall candidate
            return
        activity = record.messages_in + record.messages_out
        previous = self._activity.get(device)
        self._activity[device] = activity
        if (
            record.phase != "converging"
            or previous is None
            or activity > previous
        ):
            self._frozen[device] = 0
            return
        frozen = self._frozen.get(device, 0) + 1
        self._frozen[device] = frozen
        if frozen >= self.stall_scrapes:
            sample.stalled = True
            if frozen == self.stall_scrapes:  # fire once per episode
                self._alert(
                    snapshot,
                    kind="stalled",
                    device=device,
                    detail=(
                        f"counting counters frozen at {activity} for "
                        f"{frozen} scrapes while converging"
                    ),
                )

    def _note_transition(
        self, sample: DeviceSample, snapshot: FleetSnapshot
    ) -> None:
        previous = self._status.get(sample.device)
        self._status[sample.device] = sample.status
        if sample.status in (previous, "ok"):
            return
        record = sample.record
        detail = sample.error  # unreachable: why the scrape failed
        if record is not None:
            detail = json.dumps(
                {
                    "peers_down": record.peers_down,
                    "decode_errors": record.decode_errors,
                }
            )
        # kind: "unreachable" | "degraded"
        self._alert(snapshot, sample.status, sample.device, detail)

    def _alert(
        self, snapshot: FleetSnapshot, kind: str, device: str, detail: str
    ) -> None:
        alert: Dict[str, object] = {
            "kind": kind,
            "device": device,
            "detail": detail,
            "cycle": self.cycles,
        }
        self.alerts.append(alert)
        snapshot.alerts.append(alert)
        logger.warning(
            "fleet alert", extra=kv(kind=kind, device=device, detail=detail)
        )


# ---------------------------------------------------------------------------
# Prometheus text-format parsing (round-trip checks, CI live smoke)


def parse_prometheus_text(
    text: str,
) -> Dict[str, Dict[LabelSet, float]]:
    """Parse Prometheus text exposition into ``name -> {labels: value}``.

    Supports exactly what ``MetricsRegistry.render_text`` emits (plus
    whitespace tolerance): ``# HELP`` / ``# TYPE`` comments, sample
    lines with optional ``{label="value",...}`` sets, and the escape
    sequences ``\\\\``, ``\\"`` and ``\\n`` in label values.  Raises
    ``ValueError`` with a line number on anything malformed -- tests and
    the CI smoke step use it to assert a scrape is well-formed.
    """
    samples: Dict[str, Dict[LabelSet, float]] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            name, labels, value = _parse_sample_line(line)
        except (IndexError, ValueError) as exc:
            raise ValueError(f"line {lineno}: {exc}: {raw_line!r}") from None
        series = samples.setdefault(name, {})
        if labels in series:
            raise ValueError(
                f"line {lineno}: duplicate series {name}{dict(labels)}"
            )
        series[labels] = value
    return samples


def _parse_sample_line(line: str) -> Tuple[str, LabelSet, float]:
    index = 0
    while index < len(line) and (
        line[index].isalnum() or line[index] in "_:"
    ):
        index += 1
    name = line[:index]
    if not name:
        raise ValueError("missing metric name")
    labels: LabelSet = ()
    if index < len(line) and line[index] == "{":
        labels, index = _parse_labels(line, index + 1)
    rest = line[index:].strip()
    if not rest:
        raise ValueError("missing value")
    token = rest.split()[0]
    if token == "+Inf":
        return name, labels, float("inf")
    return name, labels, float(token)


def _parse_labels(line: str, index: int) -> Tuple[LabelSet, int]:
    pairs: List[Tuple[str, str]] = []
    while True:
        if line[index] == "}":
            return tuple(sorted(pairs)), index + 1
        start = index
        while line[index] not in '={"}':
            index += 1
        label_name = line[start:index]
        if line[index] != "=" or not label_name:
            raise ValueError(f"malformed label at column {index}")
        index += 1
        if line[index] != '"':
            raise ValueError(f"unquoted label value at column {index}")
        index += 1
        value_chars: List[str] = []
        while line[index] != '"':
            char = line[index]
            if char == "\\":
                escape = line[index + 1]
                value_chars.append(
                    {"\\": "\\", '"': '"', "n": "\n"}.get(
                        escape, "\\" + escape
                    )
                )
                index += 2
            else:
                value_chars.append(char)
                index += 1
        index += 1  # closing quote
        pairs.append((label_name, "".join(value_chars)))
        if line[index] == ",":
            index += 1
