"""Testbed mode: real asyncio/TCP runtime for on-device verifiers (§9.2).

The simulator (:mod:`repro.simulator`) drives verifiers through a
discrete-event queue; this package deploys the same verifiers as
concurrent asyncio agents behind real localhost TCP sockets, exchanging
the binary DVM wire frames end-to-end -- the deployable-system
counterpart of the paper's hardware testbed.

* :mod:`repro.runtime.transport` -- framed channels: incremental frame
  reassembly, FIFO write queues, decode-error safety.
* :mod:`repro.runtime.connection` -- DVM sessions: OPEN handshake,
  keepalive heartbeats, dead-peer detection, backoff-reconnect.
* :mod:`repro.runtime.cluster` -- boots one agent per device, injects
  workloads and faults, detects convergence by counting silence.
* :mod:`repro.runtime.deployment` -- the event-loop thread under the
  one :class:`repro.core.api.Deployment` facade (``Tulkun.deploy(...,
  backend="runtime")``): every facade call runs on it.
* :mod:`repro.runtime.metrics` -- per-device traffic/liveness counters.
"""

from repro.runtime.cluster import ClusterTimeoutError, RuntimeCluster
from repro.runtime.connection import BackoffPolicy, PeerSession
from repro.runtime.deployment import RuntimeDeployment
from repro.runtime.metrics import ClusterMetrics, DeviceMetrics
from repro.runtime.transport import FrameAssembler, FramedChannel

__all__ = [
    "BackoffPolicy",
    "ClusterMetrics",
    "ClusterTimeoutError",
    "DeviceMetrics",
    "FrameAssembler",
    "FramedChannel",
    "PeerSession",
    "RuntimeCluster",
    "RuntimeDeployment",
]
