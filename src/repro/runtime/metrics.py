"""Per-device runtime metrics (testbed counterpart of the simulator's
:class:`~repro.simulator.network.MessageStats`).

Both backends record into the shared observability registry
(:mod:`repro.obs.metrics`) through the one DVM metric schema
(:mod:`repro.obs.schema`).  A :class:`DeviceMetrics` attribute *is* the
device's registry counter: call sites ``inc()`` it, readers take its
``value``.

Counting traffic (plan-scoped DVM frames: OPEN/UPDATE/SUBSCRIBE/
LINKSTATE) is tracked separately from session control traffic (the
handshake OPEN and KEEPALIVE heartbeats with the empty session plan id),
so ``messages_out``/``bytes_out`` are comparable with the simulator's
message statistics.
"""

from __future__ import annotations

from typing import Dict, Optional, cast

from repro.obs.metrics import Counter, Histogram, MetricFamily, MetricsRegistry
from repro.obs.schema import (
    DIRECTION_IN,
    DIRECTION_OUT,
    KIND_CONTROL,
    KIND_COUNTING,
    install_dvm_schema,
)

__all__ = ["ClusterMetrics", "DeviceMetrics"]


class DeviceMetrics:
    """Traffic and liveness counters for one device's runtime agent."""

    def __init__(
        self, device: str, registry: Optional[MetricsRegistry] = None
    ) -> None:
        self.device = device
        self.registry = registry if registry is not None else MetricsRegistry()
        families = install_dvm_schema(self.registry)
        messages = families["dvm_messages_total"]
        wire_bytes = families["dvm_bytes_total"]
        self.messages_in = self._traffic(messages, DIRECTION_IN, KIND_COUNTING)
        self.messages_out = self._traffic(messages, DIRECTION_OUT, KIND_COUNTING)
        self.bytes_in = self._traffic(wire_bytes, DIRECTION_IN, KIND_COUNTING)
        self.bytes_out = self._traffic(wire_bytes, DIRECTION_OUT, KIND_COUNTING)
        self.control_in = self._traffic(messages, DIRECTION_IN, KIND_CONTROL)
        self.control_out = self._traffic(messages, DIRECTION_OUT, KIND_CONTROL)
        self.control_bytes_in = self._traffic(
            wire_bytes, DIRECTION_IN, KIND_CONTROL
        )
        self.control_bytes_out = self._traffic(
            wire_bytes, DIRECTION_OUT, KIND_CONTROL
        )
        self.decode_errors = self._device_counter(
            families, "dvm_decode_errors_total"
        )
        self.handshake_failures = self._device_counter(
            families, "dvm_handshake_failures_total"
        )
        self.reconnects = self._device_counter(
            families, "dvm_session_reconnects_total"
        )
        self.sessions_established = self._device_counter(
            families, "dvm_sessions_established_total"
        )
        self.peer_down_events = self._device_counter(
            families, "dvm_peer_down_total"
        )
        self.processing = cast(
            Histogram,
            families["verifier_processing_seconds"].labels(device=device),
        )

    def _traffic(
        self, family: MetricFamily, direction: str, kind: str
    ) -> Counter:
        return cast(
            Counter,
            family.labels(device=self.device, direction=direction, kind=kind),
        )

    def _device_counter(
        self, families: Dict[str, MetricFamily], name: str
    ) -> Counter:
        return cast(Counter, families[name].labels(device=self.device))

    def observe_processing(self, seconds: float) -> None:
        """Record one verifier handler's wall time for this device."""
        self.processing.observe(seconds)


class ClusterMetrics:
    """Cluster-wide aggregates over the devices' counters.

    Owns the one :class:`MetricsRegistry` all the cluster's devices
    record into; :meth:`device` hands each :class:`DeviceMetrics` the
    shared registry so the whole cluster exports a single schema.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.families = install_dvm_schema(self.registry)
        self.devices: Dict[str, DeviceMetrics] = {}

    def device(self, name: str) -> DeviceMetrics:
        if name not in self.devices:
            self.devices[name] = DeviceMetrics(name, registry=self.registry)
        return self.devices[name]

    @property
    def total_messages(self) -> int:
        return int(sum(m.messages_out.value for m in self.devices.values()))

    @property
    def total_bytes(self) -> int:
        return int(sum(m.bytes_out.value for m in self.devices.values()))

    @property
    def total_reconnects(self) -> int:
        return int(sum(m.reconnects.value for m in self.devices.values()))

    @property
    def total_decode_errors(self) -> int:
        return int(sum(m.decode_errors.value for m in self.devices.values()))
