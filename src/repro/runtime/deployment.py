"""The runtime backend under the :class:`~repro.core.api.Deployment` facade.

``Tulkun.deploy(fibs, backend="runtime")`` returns a
:class:`RuntimeDeployment`: the same facade as the simulator's, but the
verifiers run as concurrent asyncio agents exchanging binary DVM frames
over real localhost TCP sockets.  The cluster's event loop runs on a
dedicated daemon thread so the facade stays synchronous; every backend
call runs there and the caller blocks on its result with a timeout (a
hung testbed raises instead of stalling the caller).

Reported ``verification_seconds`` is convergence wall time (injection to
last counting activity) and ``message_count`` / ``message_bytes`` are
real frames and bytes written to the sockets.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Callable, Dict, List, Tuple

from repro.core.api import Deployment, Tulkun
from repro.core.errors import TulkunError
from repro.dataplane.fib import Fib
from repro.obs.serve import DeviceStatus
from repro.runtime.cluster import RuntimeCluster
from repro.runtime.metrics import ClusterMetrics


class RuntimeDeployment(Deployment):
    """A running localhost-TCP network of on-device verifiers."""

    def __init__(
        self,
        tulkun: Tulkun,
        fibs: Dict[str, Fib],
        **cluster_options: Any,
    ) -> None:
        self.cluster = RuntimeCluster(
            tulkun.topology, fibs, tulkun.factory, **cluster_options
        )
        super().__init__(tulkun, self.cluster)
        # Submitting callers add a margin over the cluster's own deadline
        # so the in-loop ClusterTimeoutError (with diagnostics) wins.
        self._call_timeout = self.cluster.op_timeout * 2 + 10.0
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="tulkun-runtime",
            daemon=True,
        )
        self._thread.start()
        self._closed = False
        try:
            self._call(self.cluster.start)
        except BaseException:
            self.close()
            raise

    def _call(self, operation: Callable[..., Any], *args: Any) -> Any:
        """Run ``operation(*args)`` on the loop thread, awaiting it if it
        is a coroutine, and block on its result."""
        if self._closed:
            raise TulkunError("runtime deployment is closed")

        async def run() -> Any:
            result = operation(*args)
            if asyncio.iscoroutine(result):
                result = await result
            return result

        future = asyncio.run_coroutine_threadsafe(run(), self._loop)
        try:
            return future.result(self._call_timeout)
        except FutureTimeoutError:  # pre-3.11: not the builtin TimeoutError
            future.cancel()
            raise

    def close(self) -> None:
        """Stop every agent, close all sockets, join the loop thread."""
        if self._closed:
            return
        try:
            if self.cluster.hosts:
                future = asyncio.run_coroutine_threadsafe(
                    self.cluster.stop(), self._loop
                )
                future.result(30.0)
        finally:
            self._closed = True
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(10.0)
            self._loop.close()

    # -- runtime-only ------------------------------------------------------

    def drop_connection(
        self, a: str, b: str, hold_down: float = 0.0
    ) -> float:
        """Force a TCP drop on link (a, b), wait for backoff-reconnect."""
        seconds: float = self._call(
            self.cluster.drop_connection, a, b, hold_down
        )
        return seconds

    @property
    def metrics(self) -> ClusterMetrics:
        return self.cluster.metrics

    @property
    def http_endpoints(self) -> Dict[str, Tuple[str, int]]:
        """``device -> (host, port)`` of the agents' telemetry servers.

        Scrape ``GET /metrics``, ``/healthz`` or ``/debug/flight`` on any of
        them (curl, Prometheus, :class:`repro.obs.collector.Collector`,
        or ``python -m repro top``) while the deployment runs.
        """
        return self.cluster.http_endpoints

    def statuses(self) -> List[DeviceStatus]:
        """Every device's status record (what its ``/healthz`` serves),
        read on the loop thread, in device order."""
        hosts = self.cluster.hosts
        records: List[DeviceStatus] = self._call(
            lambda: [hosts[device].status() for device in sorted(hosts)]
        )
        return records
