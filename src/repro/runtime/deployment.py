"""The runtime backend behind the :class:`~repro.core.api.Deployment` API.

``Tulkun.deploy(fibs, backend="runtime")`` returns a
:class:`RuntimeDeployment`: the same specify -> plan -> deploy -> verify
flow as the simulator backend, but the verifiers run as concurrent
asyncio agents exchanging binary DVM frames over real localhost TCP
sockets.  The cluster's event loop runs on a dedicated daemon thread so
the facade stays synchronous; every call submits a coroutine and blocks
on its result with a timeout (a hung testbed raises instead of stalling
the caller).

Reported ``verification_seconds`` is convergence wall time (injection to
last counting activity) and ``message_count`` / ``message_bytes`` are
real frames and bytes written to the sockets.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Coroutine,
    Dict,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from repro.core.errors import TulkunError
from repro.dataplane.fib import Fib
from repro.dvm.agent import Unplanned
from repro.dvm.verifier import RootVerdict, Violation
from repro.planner import Plan
from repro.runtime.cluster import RuntimeCluster
from repro.runtime.metrics import ClusterMetrics
from repro.spec.ast import Invariant

if TYPE_CHECKING:  # pragma: no cover - circular at runtime only
    from repro.core.api import Report, Tulkun

_T = TypeVar("_T")


class RuntimeDeployment:
    """A running localhost-TCP network of on-device verifiers."""

    def __init__(
        self,
        tulkun: "Tulkun",
        fibs: Dict[str, Fib],
        **cluster_options: Any,
    ) -> None:
        self.tulkun = tulkun
        self.plans: Dict[str, Plan] = {}
        self.cluster = RuntimeCluster(
            tulkun.topology, fibs, tulkun.factory, **cluster_options
        )
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
            self._submit(self.cluster.start())
        except BaseException:
            self.close()
            raise

    # -- loop plumbing -----------------------------------------------------

    def _submit(
        self,
        coroutine: "Coroutine[Any, Any, _T]",
        timeout: Optional[float] = None,
    ) -> _T:
        if self._closed:
            coroutine.close()  # never awaited; suppress the warning
            raise TulkunError("runtime deployment is closed")
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        try:
            return future.result(timeout or self._call_timeout)
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

    def __enter__(self) -> "RuntimeDeployment":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- verification ------------------------------------------------------

    def verify(self, invariant: Invariant) -> "Report":
        """Plan, distribute and verify one invariant to convergence."""
        plan = self.tulkun.plan(invariant)
        return self.verify_plan(plan)

    def verify_plan(self, plan: Plan) -> "Report":
        plan_id = f"plan-{next(self.tulkun._plan_ids)}"
        self.plans[plan_id] = plan
        messages_before = self.cluster.metrics.total_messages
        bytes_before = self.cluster.metrics.total_bytes
        elapsed = self._submit(self.cluster.install_plan(plan_id, plan))
        return self._report(
            plan_id, plan, elapsed, messages_before, bytes_before
        )

    def reverify(self, plan_id: Optional[str] = None) -> List["Report"]:
        """Current verdicts of installed plans (no new computation)."""
        selected = (
            {plan_id: self.plans[plan_id]} if plan_id else dict(self.plans)
        )
        return [
            self._report(
                identifier,
                plan,
                0.0,
                self.cluster.metrics.total_messages,
                self.cluster.metrics.total_bytes,
            )
            for identifier, plan in selected.items()
        ]

    def _report(
        self,
        plan_id: str,
        plan: Plan,
        elapsed: float,
        messages_before: int,
        bytes_before: int,
    ) -> "Report":
        from repro.core.api import make_report

        return make_report(
            plan,
            *self._submit(self._read_out(plan_id)),
            elapsed,
            self.cluster.metrics.total_messages - messages_before,
            self.cluster.metrics.total_bytes - bytes_before,
        )

    async def _read_out(
        self, plan_id: str
    ) -> Tuple[List[RootVerdict], List[Violation], Unplanned]:
        """Read verdicts on the loop thread (between handler runs)."""
        return self.cluster.read_out(plan_id)

    # -- dynamics ----------------------------------------------------------

    def update_rule(self, device: str, mutate: Callable[[], None]) -> float:
        """Apply a rule update; returns incremental convergence seconds."""
        return self._submit(self.cluster.fib_update(device, mutate))

    def fail_link(self, a: str, b: str) -> float:
        return self._submit(self.cluster.fail_link(a, b))

    def recover_link(self, a: str, b: str) -> float:
        return self._submit(self.cluster.recover_link(a, b))

    def drop_connection(
        self, a: str, b: str, hold_down: float = 0.0
    ) -> float:
        """Force a TCP drop on link (a, b), wait for backoff-reconnect."""
        return self._submit(self.cluster.drop_connection(a, b, hold_down))

    def reports(self) -> List["Report"]:
        return self.reverify()

    def holds(self, plan_id: str) -> bool:
        return self._submit(self._holds(plan_id))

    async def _holds(self, plan_id: str) -> bool:
        return self.cluster.holds(plan_id)

    def flight_dump(self) -> Dict[str, Dict[str, object]]:
        """Per-device flight-recorder dumps (see ``repro.obs.flight``)."""
        return self._submit(self._flight_dump())

    async def _flight_dump(self) -> Dict[str, Dict[str, object]]:
        return self.cluster.flight_dump()

    # -- metrics -----------------------------------------------------------

    @property
    def metrics(self) -> ClusterMetrics:
        return self.cluster.metrics

    @property
    def http_endpoints(self) -> Dict[str, Tuple[str, int]]:
        """``device -> (host, port)`` of the agents' telemetry servers.

        Scrape ``GET /metrics``, ``/healthz`` or ``/vars`` on any of
        them (curl, Prometheus, :class:`repro.obs.collector.Collector`,
        or ``python -m repro top``) while the deployment runs.
        """
        return self.cluster.http_endpoints

    def metrics_rows(self) -> List[Dict[str, object]]:
        """Per-device metric rows for :mod:`repro.bench.reporting`."""
        return self.cluster.metrics.rows()
