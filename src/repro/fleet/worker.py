"""The fleet worker process: one shard of agents plus a control channel.

Launched as ``python -m repro.fleet.worker --spec fleet.json --worker
2``: reads the :class:`~repro.fleet.spec.FleetSpec`, deterministically
rebuilds the workload and sharding plan (same seeds as every other
worker), boots a sharded :class:`~repro.runtime.cluster.RuntimeCluster`
for its devices, and serves the launcher's JSON-lines control ops until
told to stop.  SIGTERM/SIGINT drain gracefully: sessions close cleanly,
telemetry servers shut down, exit code 0.

Control ops are the rows of :data:`repro.fleet.control.OPS`; each is
served by the ``_op_<name>`` method below (``docs/RUNTIME.md`` has the
table with payloads).  An injection (``install``, ``update``, ``link``)
opens the operation window, injects, and answers as ``status`` does:
its answer is the first settle wave of the operation.  The window
closes at the first answer that finds the shard settled.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
import time
from typing import Dict, List, Optional

from repro.bench.workloads import RuleUpdate
from repro.dvm.agent import OpWindow
from repro.fleet.control import ControlServer
from repro.fleet.sharding import make_shard_plan
from repro.fleet.spec import (
    FleetSpec,
    build_fleet_workload,
    fleet_update_stream,
)
from repro.obs.log import configure, get_logger, kv
from repro.runtime.cluster import ClusterTimeoutError, RuntimeCluster

__all__ = ["FleetWorker", "main"]

logger = get_logger("fleet.worker")

class FleetWorker:
    """One worker process: shard cluster + control server."""

    def __init__(self, spec: FleetSpec, worker_index: int) -> None:
        self.spec = spec
        self.worker_index = worker_index
        self.workload = build_fleet_workload(spec)
        self.plan = make_shard_plan(
            self.workload.topology, spec.workers, spec.base_port
        )
        self.shard = self.plan.shards[worker_index]
        self.cluster = RuntimeCluster(
            self.workload.topology,
            self.workload.fibs,
            self.workload.factory,
            keepalive_interval=spec.keepalive_interval,
            op_timeout=spec.op_timeout,
            handshake_timeout=spec.handshake_timeout,
            http_base_port=self.plan.http_base_port,
            # A telemetry port still in TIME_WAIT shifts an agent up to
            # four ports over instead of failing the boot.
            http_retry_window=4,
            shard=self.shard,
            dvm_ports=self.plan.dvm_ports,
            local_fastpath=True,
        )
        self.control = ControlServer(
            self, port=self.plan.control_port(worker_index)
        )
        self.ready = False
        #: The latest operation's window, kept after it closes.
        self._window: Optional[OpWindow] = None
        self._updates: List[RuleUpdate] = []

    # -- lifecycle ---------------------------------------------------------

    async def run(self) -> int:
        """Serve until a ``stop`` op or a termination signal."""
        # Python 3.9 binds an Event to the loop current at construction.
        self._stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, self._stop_event.set)
        await self.control.start()
        logger.info(
            "worker control channel up",
            extra=kv(worker=self.worker_index, port=self.control.port),
        )
        try:
            # Establishment can outlive a shutdown request (a peer
            # worker may be dead), so race it against the stop event:
            # SIGTERM stays responsive even while sessions are dialing.
            start = asyncio.ensure_future(self.cluster.start())
            stopped = asyncio.ensure_future(self._stop_event.wait())
            done, pending = await asyncio.wait(
                {start, stopped}, return_when=asyncio.FIRST_COMPLETED
            )
            for task in pending:
                task.cancel()
            await asyncio.gather(start, stopped, return_exceptions=True)
            if start in done:
                exc = start.exception()
                if exc is not None:
                    raise exc  # establish failure: crash out (exit 1)
            if not self._stop_event.is_set():
                self.ready = True
                logger.info(
                    "worker shard established",
                    extra=kv(
                        worker=self.worker_index, devices=len(self.shard)
                    ),
                )
            await self._stop_event.wait()
        finally:
            await self.cluster.stop()
            await self.control.stop()
            logger.info(
                "worker drained", extra=kv(worker=self.worker_index)
            )
        return 0

    # -- control ops -------------------------------------------------------

    async def _op_ping(self) -> Dict[str, object]:
        """Liveness probe (answers even before the cluster is up)."""
        return {
            "worker": self.worker_index,
            "ready": self.ready,
            "devices": len(self.shard),
        }

    async def _op_status(self, wait: float = 0.0) -> Dict[str, object]:
        """A settle wave: ``settled_local`` plus ``[device, peer, out,
        done]`` per live cross-shard session end and the operation's
        ``seconds``; ``wait`` long-polls that many seconds for the shard
        to settle first.  The first answer that finds the shard settled
        closes the operation window.  Session health is in each agent's
        ``/healthz`` record, not here."""
        if wait > 0:
            try:
                await self.cluster.wait_quiescence(wait)
            except ClusterTimeoutError:
                pass  # answer unsettled; the launcher asks again
        settled = not self.cluster.unsettled()
        seconds = 0.0
        if self._window is not None:
            if settled and self.cluster.phase == "converging":
                self.cluster.finish_operation(self._window)
            # Last counting activity minus the window's start.
            seconds = max(
                0.0, self.cluster._last_activity_wall - self._window.start
            )
        return {
            "worker": self.worker_index,
            "settled_local": settled,
            "links": self.cluster.cross_shard_counters(),
            "seconds": seconds,
        }

    async def _op_install(
        self, label: str = "fleet_install", wait: float = 0.0
    ) -> Dict[str, object]:
        """Inject every plan into the locally hosted devices."""
        deadline = time.monotonic() + wait
        self._window = self.cluster.begin_operation(label)
        self.cluster.inject_plans(dict(self.workload.plans))
        return await self._op_status(deadline - time.monotonic())

    async def _op_update(
        self,
        label: str = "fleet_update",
        wait: float = 0.0,
        index: int = 0,
        count: int = 0,
    ) -> Dict[str, object]:
        """Apply update ``index`` of the shared deterministic stream of
        length ``count`` if its device is local."""
        deadline = time.monotonic() + wait
        if count < 1 or index >= count:
            raise ValueError(f"bad update index {index} of {count}")
        if len(self._updates) != count:
            self._updates = fleet_update_stream(
                self.spec, self.workload, count
            )
        update = self._updates[index]
        self._window = self.cluster.begin_operation(label)
        self.cluster.inject_fib_update(update.device, update.apply)
        return await self._op_status(deadline - time.monotonic())

    async def _op_link(
        self,
        a: str,
        b: str,
        up: bool = True,
        label: str = "fleet_link",
        wait: float = 0.0,
    ) -> Dict[str, object]:
        """Administrative link event (a recovery waits for the local ends
        to re-establish before the settle wave)."""
        deadline = time.monotonic() + wait
        self._window = self.cluster.begin_operation(label)
        self.cluster.apply_link_event(a, b, up=up)
        if up:
            await self.cluster.wait_session(a, b)
        return await self._op_status(deadline - time.monotonic())

    async def _op_metrics(self) -> Dict[str, object]:
        """Shard traffic totals."""
        metrics = self.cluster.metrics
        return {
            "messages": metrics.total_messages,
            "bytes": metrics.total_bytes,
            "reconnects": metrics.total_reconnects,
        }

    async def _op_dump_flight(self) -> Dict[str, object]:
        """Per-device flight-recorder dumps of this shard."""
        return {"flight": self.cluster.flight_dump()}

    async def _op_stop(self) -> Dict[str, object]:
        """Graceful shutdown."""
        self._stop_event.set()
        return {}

    async def _op_verdicts(self) -> Dict[str, object]:
        """Per-plan root verdicts of the locally hosted devices.

        Entries are ``[ingress, holds, sorted count tuples]`` -- the
        launcher concatenates shards and the CLI compares the merged set
        against the simulator's.
        """
        document: Dict[str, List[List[object]]] = {}
        for plan_id, _ in self.workload.plans:
            rows = [
                [
                    verdict.ingress,
                    verdict.holds,
                    sorted(list(entry) for entry in verdict.counts.tuples),
                ]
                for verdict in self.cluster.verdicts(plan_id)
            ]
            if rows:
                document[plan_id] = rows
        return {"verdicts": document}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-fleet-worker",
        description="one shard of a repro fleet (spawned by the launcher)",
    )
    parser.add_argument(
        "--spec", required=True, help="path to the FleetSpec JSON file"
    )
    parser.add_argument(
        "--worker", required=True, type=int, help="this worker's index"
    )
    args = parser.parse_args(argv)
    configure()  # the launcher redirects stderr into worker-N.log
    with open(args.spec, "r") as handle:
        spec = FleetSpec.from_json(handle.read())
    if not 0 <= args.worker < spec.workers:
        parser.error(
            f"worker index {args.worker} out of range for "
            f"{spec.workers} workers"
        )
    worker = FleetWorker(spec, args.worker)
    return asyncio.run(worker.run())


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    sys.exit(main())
