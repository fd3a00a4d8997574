"""The fleet worker process: one shard of agents plus a control channel.

Launched as ``python -m repro.fleet.worker --spec fleet.json --worker
2``: reads the :class:`~repro.fleet.spec.FleetSpec`, deterministically
rebuilds the workload and sharding plan (same seeds as every other
worker), boots a sharded :class:`~repro.runtime.cluster.RuntimeCluster`
for its devices, and serves the launcher's JSON-lines control ops until
told to stop.  SIGTERM/SIGINT drain gracefully: sessions close cleanly,
telemetry servers shut down, exit code 0.

Control ops (see :mod:`repro.fleet.control` for the envelope):

``ping``      liveness probe (answers even before the cluster is up).
``status``    readiness, phase, session health, ``settled_local`` and
              ``[device, peer, out, done]`` per live cross-shard session
              end -- the launcher's convergence wave; ``"wait"``
              long-polls that many seconds for the shard to settle.
``endpoints`` device -> ``host:port`` of this worker's telemetry servers.
``begin``     open an operation window (label in ``"label"``).
``install``   inject every plan into the locally hosted devices.
``update``    apply rule update ``"index"`` of the deterministic stream
              of length ``"count"`` if its device is local.
``link``      administrative link event: ``"a"``, ``"b"``, ``"up"``
              (a recovery answers once the local ends re-established).
``finish``    close the operation window; answers convergence seconds.
``verdicts``  per-plan root verdicts hosted on this shard.
``metrics``   shard traffic totals.
``dump_flight``  per-device flight-recorder dumps of this shard.
``stop``      graceful shutdown.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from typing import Dict, List, Optional, Tuple

from repro.bench.workloads import RuleUpdate
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

#: Declared worker lifecycle, the peer machine of the launcher's
#: ``LAUNCHER_TRANSITIONS``: boot -> session establishment -> op
#: windows, graceful drain on a ``stop`` op or SIGTERM, hard exit on
#: SIGKILL, and the crash/respawn edge driven by the launcher's
#: :meth:`~repro.fleet.launcher.FleetLauncher.restart`.  Explored by
#: ``repro.checkers.modelcheck`` (rules FSM005/FSM006).
WORKER_STATES = (
    "BOOT",
    "ESTABLISHING",
    "READY",
    "IN_OP",
    "DRAINING",
    "CRASHED",
    "EXITED",
)
WORKER_TRANSITIONS: Dict[Tuple[str, str], str] = {
    ("BOOT", "control_up"): "ESTABLISHING",
    ("BOOT", "sigterm"): "DRAINING",
    ("BOOT", "sigkill"): "EXITED",
    ("BOOT", "crash"): "CRASHED",
    ("ESTABLISHING", "established"): "READY",
    ("ESTABLISHING", "stop_op"): "DRAINING",
    ("ESTABLISHING", "sigterm"): "DRAINING",
    ("ESTABLISHING", "sigkill"): "EXITED",
    ("ESTABLISHING", "crash"): "CRASHED",
    ("READY", "begin"): "IN_OP",
    ("READY", "stop_op"): "DRAINING",
    ("READY", "sigterm"): "DRAINING",
    ("READY", "sigkill"): "EXITED",
    ("READY", "crash"): "CRASHED",
    ("IN_OP", "finish"): "READY",
    ("IN_OP", "stop_op"): "DRAINING",
    ("IN_OP", "sigterm"): "DRAINING",
    ("IN_OP", "sigkill"): "EXITED",
    ("IN_OP", "crash"): "CRASHED",
    ("DRAINING", "drained"): "EXITED",
    ("DRAINING", "sigkill"): "EXITED",
    ("DRAINING", "crash"): "CRASHED",
    ("CRASHED", "respawn"): "BOOT",
}


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
            hold_multiplier=spec.hold_multiplier,
            op_timeout=spec.op_timeout,
            handshake_timeout=spec.handshake_timeout,
            http_base_port=self.plan.http_base_port,
            http_retry_window=spec.http_retry_window,
            shard=self.shard,
            dvm_ports=self.plan.dvm_ports,
            local_fastpath=spec.fastpath,
        )
        self.control = ControlServer(
            self._handle, port=self.plan.control_port(worker_index)
        )
        self.ready = False
        self._op_start: Optional[float] = None
        self._updates: List[RuleUpdate] = []
        self._stop_event = asyncio.Event()

    # -- lifecycle ---------------------------------------------------------

    async def run(self) -> int:
        """Serve until a ``stop`` op or a termination signal."""
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

    async def _handle(
        self, request: Dict[str, object]
    ) -> Dict[str, object]:
        op = request.get("op")
        if op == "ping":
            return {
                "worker": self.worker_index,
                "ready": self.ready,
                "devices": len(self.shard),
            }
        if op == "status":
            wait = float(request.get("wait", 0.0))  # type: ignore[arg-type]
            if wait > 0:
                try:
                    await self.cluster.wait_quiescence(wait)
                except ClusterTimeoutError:
                    pass  # answer unsettled; the launcher asks again
            return self._status()
        if op == "endpoints":
            return {
                "http": {
                    device: [host, port]
                    for device, (host, port) in sorted(
                        self.cluster.http_endpoints.items()
                    )
                }
            }
        if op == "begin":
            label = str(request.get("label", "fleet_op"))
            self._op_start = self.cluster.begin_operation(label)
            return {}
        if op == "install":
            self.cluster.inject_plans(dict(self.workload.plans))
            return {"plans": len(self.workload.plans)}
        if op == "update":
            return self._apply_update(
                int(request.get("index", 0)),  # type: ignore[arg-type]
                int(request.get("count", 0)),  # type: ignore[arg-type]
            )
        if op == "link":
            a, b = str(request["a"]), str(request["b"])
            up = bool(request.get("up", True))
            self.cluster.apply_link_event(a, b, up=up)
            if up:
                await self.cluster.wait_session(a, b)
            return {}
        if op == "finish":
            if self._op_start is None:
                raise RuntimeError("finish without begin")
            seconds = self.cluster.finish_operation(self._op_start)
            self._op_start = None
            return {"seconds": seconds}
        if op == "verdicts":
            return {"verdicts": self._verdicts()}
        if op == "metrics":
            metrics = self.cluster.metrics
            return {
                "messages": metrics.total_messages,
                "bytes": metrics.total_bytes,
                "reconnects": metrics.total_reconnects,
            }
        if op == "dump_flight":
            return {"flight": self.cluster.dump_flight()}
        if op == "stop":
            self._stop_event.set()
            return {}
        raise ValueError(f"unknown control op {op!r}")

    def _status(self) -> Dict[str, object]:
        peers_down = 0
        established = 0
        for host in self.cluster.hosts.values():
            for session in host.sessions.values():
                if session.is_established:
                    established += 1
                elif self.cluster.link_admin_up(
                    host.device, session.peer
                ):
                    peers_down += 1
        peer_down_events = sum(
            host.metrics.peer_down_events
            for host in self.cluster.hosts.values()
        )
        return {
            "worker": self.worker_index,
            "ready": self.ready,
            "devices": len(self.shard),
            "settled_local": not self.cluster.unsettled(),
            "links": self.cluster.cross_shard_counters(),
            "phase": self.cluster.phase,
            "sessions_established": established,
            "peers_down": peers_down,
            "peer_down_events": peer_down_events,
        }

    def _apply_update(self, index: int, count: int) -> Dict[str, object]:
        """Apply one update of the shared deterministic stream."""
        if count < 1 or index >= count:
            raise ValueError(f"bad update index {index} of {count}")
        if len(self._updates) != count:
            self._updates = fleet_update_stream(
                self.spec, self.workload, count
            )
        update = self._updates[index]
        applied = self.cluster.inject_fib_update(
            update.device, update.apply
        )
        return {
            "applied": applied,
            "device": update.device,
            "description": update.description,
        }

    def _verdicts(self) -> Dict[str, List[List[object]]]:
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
        return document


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
