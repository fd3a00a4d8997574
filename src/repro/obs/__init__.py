"""repro.obs -- the shared observability layer.

Five parts, zero dependencies, shared by the discrete-event simulator
and the asyncio/TCP runtime (see ``docs/OBSERVABILITY.md``):

* :mod:`repro.obs.metrics` + :mod:`repro.obs.schema` -- the metrics
  registry and the one DVM metric schema both backends install;
* :mod:`repro.obs.trace` + :mod:`repro.obs.export` -- the span /
  instant trace record (derived from flight dumps, never recorded
  live) and its one rendering, the Chrome trace (Perfetto);
* :mod:`repro.obs.log` -- structured ``key=value`` logging;
* :mod:`repro.obs.serve` + :mod:`repro.obs.collector` -- the live
  telemetry plane: per-agent ``/metrics`` + ``/healthz`` +
  ``/debug/flight`` HTTP endpoints, the one per-device status record
  (:class:`DeviceStatus`, what ``/healthz`` serves), and the collector
  behind ``python -m repro top`` that reads it;
* :mod:`repro.obs.flight` -- the per-device flight recorder (bounded
  ring of typed events with Lamport clocks), the one causal record,
  plus the merge / causal chain / trace derivation behind ``python -m
  repro explain`` and ``python -m repro trace``.
"""

from repro.obs.collector import (
    Collector,
    DeviceSample,
    FleetSnapshot,
    parse_prometheus_text,
)
from repro.obs.flight import (
    NULL_RECORDER,
    FlightRecorder,
    LamportClock,
    causal_chain,
    chain_signature,
    find_verdict,
    merge_dumps,
    records_from_flight,
    render_chain,
    render_timeline,
)
from repro.obs.export import to_chrome, validate_records, write_chrome
from repro.obs.log import configure as configure_logging
from repro.obs.log import get_logger, kv
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricError,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.schema import DVM_METRIC_NAMES, install_dvm_schema
from repro.obs.serve import DeviceStatus, TelemetryServer, http_get
from repro.obs.trace import TraceRecord

__all__ = [
    "Collector",
    "Counter",
    "DVM_METRIC_NAMES",
    "DeviceSample",
    "DeviceStatus",
    "FleetSnapshot",
    "FlightRecorder",
    "Histogram",
    "LamportClock",
    "MetricError",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_RECORDER",
    "TelemetryServer",
    "TraceRecord",
    "causal_chain",
    "chain_signature",
    "configure_logging",
    "find_verdict",
    "get_logger",
    "http_get",
    "install_dvm_schema",
    "kv",
    "merge_dumps",
    "parse_prometheus_text",
    "records_from_flight",
    "render_chain",
    "render_timeline",
    "to_chrome",
    "validate_records",
    "write_chrome",
]
