"""The shared DVM metric schema: one name/label vocabulary, two backends.

Every backend installs the same instrument set through
:func:`install_dvm_schema`, so the two registries agree metric for
metric on the *schema* (names, kinds, label sets) and their values
compare family by family.

Frame-kind vocabulary (mirrors the wire protocol):

* ``counting`` -- plan-scoped DVM frames (OPEN / UPDATE / SUBSCRIBE /
  LINKSTATE) that carry or trigger counting state;
* ``control`` -- session-level frames (the handshake OPEN and KEEPALIVE
  heartbeats scoped to the empty session plan id).  The simulator has no
  session layer, so its ``control`` series exist but stay at zero --
  which is itself a parity-checkable fact.
"""

from __future__ import annotations

from typing import Dict

from repro.obs.metrics import MetricFamily, MetricsRegistry

__all__ = [
    "DIRECTION_IN",
    "DIRECTION_OUT",
    "KIND_CONTROL",
    "KIND_COUNTING",
    "DVM_METRIC_NAMES",
    "install_dvm_schema",
]

DIRECTION_IN = "in"
DIRECTION_OUT = "out"
KIND_COUNTING = "counting"
KIND_CONTROL = "control"

#: name -> (kind, labelnames, help).  The single source of truth; both
#: backends install exactly this set.
_SCHEMA: Dict[str, object] = {
    "dvm_messages_total": (
        "counter",
        ("device", "direction", "kind"),
        "DVM frames by device, direction (in/out) and kind "
        "(counting/control)",
    ),
    "dvm_bytes_total": (
        "counter",
        ("device", "direction", "kind"),
        "DVM wire bytes by device, direction and kind",
    ),
    "dvm_decode_errors_total": (
        "counter",
        ("device",),
        "frames that failed to decode (garbage or truncation on the wire)",
    ),
    "dvm_handshake_failures_total": (
        "counter",
        ("device",),
        "inbound connections refused before a valid session OPEN",
    ),
    "dvm_sessions_established_total": (
        "counter",
        ("device",),
        "session establishments (first connects and reconnects)",
    ),
    "dvm_session_reconnects_total": (
        "counter",
        ("device",),
        "re-establishments after a session loss",
    ),
    "dvm_peer_down_total": (
        "counter",
        ("device",),
        "dead-peer events (EOF, reset, decode garbage, keepalive timeout)",
    ),
    "verifier_processing_seconds": (
        "histogram",
        ("device",),
        "per-event verifier handler time (simulated cost on the "
        "simulator backend, wall time on the runtime backend)",
    ),
    "convergence_seconds": (
        "histogram",
        (),
        "per-operation convergence time, injection to quiescence",
    ),
}

DVM_METRIC_NAMES = tuple(sorted(_SCHEMA))

def install_dvm_schema(registry: MetricsRegistry) -> Dict[str, MetricFamily]:
    """Declare the shared device instrument set; returns name -> family."""
    families: Dict[str, MetricFamily] = {}
    for name in sorted(_SCHEMA):
        kind, labelnames, help_text = _SCHEMA[name]  # type: ignore[misc]
        if kind == "histogram":
            families[name] = registry.histogram(name, help_text, labelnames)
        else:
            families[name] = registry.counter(name, help_text, labelnames)
    return families
