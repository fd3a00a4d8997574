"""Spawn, supervise and federate a fleet of worker processes.

The launcher is the only process that sees the whole fleet, but it
holds none of the verification state: workers rebuild everything from
the shared :class:`~repro.fleet.spec.FleetSpec`, and the launcher just
orchestrates over the control channel -- broadcast an injection, run
the federated settle wave, collect per-shard results.

Supervision: worker processes are polled for liveness on every settle
wave and every broadcast; an unexpected exit raises
:class:`WorkerCrashed` naming the dead workers (crash propagation).
Shutdown sends a ``stop`` op (graceful drain), then SIGTERM, then
SIGKILL.

Federated quiescence: each worker runs the exact detector of
:class:`~repro.runtime.cluster.RuntimeCluster` over its shard and
reports the ``out``/``done`` counters of its cross-shard session ends;
one wave of reports with every shard settled and every cross-shard link
matching is convergence (:meth:`FleetLauncher.settle`).  Convergence
time is the *max* of the per-worker ``finish`` results (last counting
activity in any shard).
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.fleet import control
from repro.fleet.sharding import ShardPlan, make_shard_plan
from repro.fleet.spec import FleetSpec, fleet_topology
from repro.obs.log import get_logger, kv

__all__ = ["FleetError", "FleetLauncher", "WorkerCrashed"]

logger = get_logger("fleet.launcher")

#: Share of its op's deadline a long-poll may hold the control
#: connection; the rest is for the answer to come back.
_LONG_POLL_SHARE = 2 / 3


class FleetError(RuntimeError):
    """A fleet-level orchestration failure."""


class WorkerCrashed(FleetError):
    """One or more worker processes exited unexpectedly."""

    def __init__(self, workers: List[int], codes: List[Optional[int]]):
        self.workers = workers
        self.codes = codes
        detail = ", ".join(
            f"worker {index} (exit {code})"
            for index, code in zip(workers, codes)
        )
        super().__init__(f"fleet workers died: {detail}")


@dataclass
class WorkerHandle:
    """One spawned worker process and its control address."""

    index: int
    process: "subprocess.Popen[bytes]"
    control_port: int
    log_path: str


class FleetLauncher:
    """Boot and drive a multi-process fleet described by one spec."""

    def __init__(
        self, spec: FleetSpec, run_dir: Optional[str] = None
    ) -> None:
        self.spec = spec
        self.topology = fleet_topology(spec.topology, spec.scale)
        self.plan: ShardPlan = make_shard_plan(
            self.topology, spec.workers, spec.base_port
        )
        self.run_dir = run_dir or tempfile.mkdtemp(prefix="repro-fleet-")
        self.spec_path = os.path.join(self.run_dir, "fleet.json")
        self.workers: Dict[int, WorkerHandle] = {}
        self._stopping = False

    # -- process management ------------------------------------------------

    def _spawn(self, index: int) -> WorkerHandle:
        env = dict(os.environ)
        src_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root + os.pathsep + existing if existing else src_root
        )
        log_path = os.path.join(self.run_dir, f"worker-{index}.log")
        with open(log_path, "ab") as log_file:
            process = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.fleet.worker",
                    "--spec",
                    self.spec_path,
                    "--worker",
                    str(index),
                ],
                env=env,
                stdout=log_file,
                stderr=subprocess.STDOUT,
            )
        handle = WorkerHandle(
            index=index,
            process=process,
            control_port=self.plan.control_port(index),
            log_path=log_path,
        )
        self.workers[index] = handle
        logger.info(
            "spawned fleet worker",
            extra=kv(worker=index, pid=process.pid, log=log_path),
        )
        return handle

    def crashed_workers(self) -> List[WorkerHandle]:
        """Workers that exited while the fleet was supposed to be up."""
        if self._stopping:
            return []
        return [
            handle
            for handle in self.workers.values()
            if handle.process.poll() is not None
        ]

    def check_alive(self) -> None:
        """Raise :class:`WorkerCrashed` if any worker died unexpectedly."""
        dead = self.crashed_workers()
        if dead:
            raise WorkerCrashed(
                [handle.index for handle in dead],
                [handle.process.poll() for handle in dead],
            )

    def _write_spec(self) -> None:
        with open(self.spec_path, "w") as handle:
            handle.write(self.spec.to_json())

    async def start(self, ready_timeout: float = 120.0) -> None:
        """Write the spec, spawn every worker, wait until all are ready.

        Spec write and process spawns touch the filesystem, so they run
        in the default executor instead of blocking the event loop.
        """
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._write_spec)
        for index in range(self.spec.workers):
            await loop.run_in_executor(None, self._spawn, index)
        await self.wait_ready(ready_timeout)

    async def wait_ready(self, timeout: float) -> None:
        """Poll ``ping`` until every worker is ready."""
        pending = set(self.workers)
        deadline = time.monotonic() + timeout
        delay = 0.01
        while pending:
            self.check_alive()
            if time.monotonic() > deadline:
                raise FleetError(
                    f"workers {sorted(pending)} not ready within "
                    f"{timeout:g}s (see logs in {self.run_dir})"
                )
            for index in sorted(pending):
                try:
                    response = await self._call(index, {"op": "ping"})
                except (ConnectionError, OSError, asyncio.TimeoutError):
                    continue
                if response.get("ok") and response.get("ready"):
                    pending.discard(index)
            if pending:
                await asyncio.sleep(delay)
                delay = min(0.1, delay * 2)

    async def stop(self, grace: float = 10.0) -> None:
        """Drain the fleet: stop op, then SIGTERM, then SIGKILL."""
        self._stopping = True
        for handle in self.workers.values():
            if handle.process.poll() is not None:
                continue
            try:
                await self._call(handle.index, {"op": "stop"})
            except (
                ConnectionError,
                OSError,
                ValueError,
                asyncio.TimeoutError,
            ):
                pass  # unreachable worker: escalate to signals below
        await self._wait_exit(grace)
        for handle in self.workers.values():
            if handle.process.poll() is None:
                handle.process.terminate()
        await self._wait_exit(grace)
        for handle in self.workers.values():
            if handle.process.poll() is None:
                logger.warning(
                    "killing unresponsive worker",
                    extra=kv(worker=handle.index),
                )
                handle.process.kill()
                handle.process.wait()

    async def _wait_exit(self, grace: float) -> None:
        """Wait until every worker exited, at most ``grace`` seconds."""
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline and any(
            handle.process.poll() is None
            for handle in self.workers.values()
        ):
            await asyncio.sleep(0.05)

    # -- control-plane orchestration ---------------------------------------

    async def _call(
        self,
        index: int,
        request: Dict[str, object],
        timeout: Optional[float] = None,
    ) -> Dict[str, object]:
        """One round-trip: the ``OPS`` row refuses an op or key it does
        not hold before anything is sent, and supplies the deadline."""
        row = control.row_of(request)
        return await control.call(
            "127.0.0.1",
            self.workers[index].control_port,
            request,
            timeout=row.timeout if timeout is None else timeout,
        )

    async def call_worker(
        self,
        index: int,
        request: Dict[str, object],
        timeout: Optional[float] = None,
    ) -> Dict[str, object]:
        """One checked control call to one worker."""
        response = await self._call(index, request, timeout)
        if not response.get("ok"):
            raise FleetError(
                f"worker {index} rejected {request.get('op')!r}: "
                f"{response.get('error')}"
            )
        return response

    async def broadcast(
        self, request: Dict[str, object], timeout: Optional[float] = None
    ) -> List[Dict[str, object]]:
        """The same control call to every worker, in worker order."""
        self.check_alive()
        try:
            return list(
                await asyncio.gather(
                    *(
                        self.call_worker(index, dict(request), timeout)
                        for index in sorted(self.workers)
                    )
                )
            )
        except (ConnectionError, OSError, asyncio.TimeoutError):
            # Re-check liveness: a connection error during a broadcast
            # usually means a worker died mid-call.
            self.check_alive()
            raise

    async def settle(self, timeout: Optional[float] = None) -> None:
        """Federated quiescence: one exact wave of ``status`` reports.

        Each ``status`` long-polls until its shard is locally settled,
        then samples in one event-loop tick the ``(out, done)`` counters
        of its live cross-shard session ends.  Converged: every shard
        settled and, per cross-shard link, both ends absent or both
        present with each ``out`` equal to the other end's ``done``.

        One matched wave suffices although shards are sampled at
        different instants.  A settled shard sends nothing until a
        cross-shard frame reactivates it.  Take the *first* frame that
        reactivates any shard after its sample: if it was sent before
        its sender's sample, the sender's ``out`` counts it and the
        receiver's ``done`` (per-connection FIFO, bumped only after
        handling) does not, so the link cannot match; if after, the
        sender was reactivated earlier still, contradicting *first*.
        An unmatched wave is retried; the long-poll paces the retries.
        """
        deadline = time.monotonic() + (timeout or self.spec.op_timeout)
        poll: Dict[str, object] = {"op": "status"}
        longest = control.row_of(poll).timeout * _LONG_POLL_SHARE
        while True:
            poll["wait"] = max(0.0, min(deadline - time.monotonic(), longest))
            statuses = await self.broadcast(poll)
            unsettled = [
                s["worker"] for s in statuses if not s["settled_local"]
            ]
            ends = {
                (str(device), str(peer)): (int(out), int(done))
                for s in statuses
                for device, peer, out, done in s["links"]  # type: ignore[attr-defined]
            }
            unmatched = sorted(
                end
                for end, (out, done) in ends.items()
                if ends.get((end[1], end[0])) != (done, out)
            )
            if not unsettled and not unmatched:
                return
            if time.monotonic() >= deadline:
                raise FleetError(
                    "fleet did not reach quiescence within deadline "
                    f"(unsettled workers: {unsettled}, "
                    f"unmatched cross-shard ends: {unmatched})"
                )

    async def run_operation(
        self,
        label: str,
        inject: Dict[str, object],
        timeout: Optional[float] = None,
    ) -> float:
        """begin everywhere -> inject -> federated settle -> max finish.

        ``begin``/``finish`` span every worker, so the per-worker
        convergence clocks measure the same operation window.
        """
        await self.broadcast({"op": "begin", "label": label})
        await self.broadcast(dict(inject), timeout=timeout)
        await self.settle(timeout)
        finishes = await self.broadcast({"op": "finish"})
        return max(float(f["seconds"]) for f in finishes)  # type: ignore[arg-type]

    async def install_plans(
        self, timeout: Optional[float] = None
    ) -> float:
        """Fleet-wide plan installation burst; returns convergence s."""
        return await self.run_operation(
            "fleet_install", {"op": "install"}, timeout=timeout
        )

    async def apply_update(
        self, index: int, count: int, timeout: Optional[float] = None
    ) -> float:
        """One incremental update of the shared deterministic stream."""
        return await self.run_operation(
            f"fleet_update:{index}",
            {"op": "update", "index": index, "count": count},
            timeout=timeout,
        )

    async def link_event(
        self, a: str, b: str, up: bool, timeout: Optional[float] = None
    ) -> float:
        """Fail or recover link (a, b) fleet-wide."""
        label = "link_recover" if up else "link_fail"
        return await self.run_operation(
            f"{label}:{a}-{b}",
            {"op": "link", "a": a, "b": b, "up": up},
            timeout=timeout,
        )

    async def verdicts(self) -> Dict[str, List[List[object]]]:
        """Merged per-plan root verdicts across every shard."""
        merged: Dict[str, List[List[object]]] = {}
        for response in await self.broadcast({"op": "verdicts"}):
            shard_verdicts = response.get("verdicts")
            if not isinstance(shard_verdicts, dict):
                continue
            for plan_id, rows in shard_verdicts.items():
                merged.setdefault(plan_id, []).extend(rows)
        for rows in merged.values():
            rows.sort(key=lambda row: str(row[0]))
        return merged

    def holds(self, verdicts: Dict[str, List[List[object]]]) -> Dict[str, bool]:
        """Per-plan fleet verdict: every ingress holds, none missing."""
        return {
            plan_id: bool(rows) and all(bool(row[1]) for row in rows)
            for plan_id, rows in verdicts.items()
        }

    async def metrics(self) -> Dict[str, int]:
        """Fleet traffic totals summed over workers."""
        totals = {"messages": 0, "bytes": 0, "reconnects": 0}
        for response in await self.broadcast({"op": "metrics"}):
            for key in totals:
                totals[key] += int(response.get(key, 0))  # type: ignore[arg-type]
        return totals

    async def dump_flight(self) -> Dict[str, Dict[str, object]]:
        """Merged ``device -> flight dump`` across every shard.

        Shards own disjoint devices, so the merge is a plain union;
        feed the result to :func:`repro.obs.flight.merge_dumps` for one
        causally-ordered fleet log.
        """
        merged: Dict[str, Dict[str, object]] = {}
        for response in await self.broadcast({"op": "dump_flight"}):
            flight = response.get("flight")
            if not isinstance(flight, dict):
                continue
            for device, dump in sorted(flight.items()):
                if isinstance(dump, dict):
                    merged[device] = dump
        return merged

    # -- observability federation ------------------------------------------

    async def endpoints(self) -> Dict[str, Tuple[str, int]]:
        """Live ``device -> (host, port)`` telemetry map, fleet-wide.

        Unlike :meth:`telemetry_targets` (the *planned* addresses) this
        asks every worker what it actually bound.
        """
        merged: Dict[str, Tuple[str, int]] = {}
        for response in await self.broadcast({"op": "endpoints"}):
            http = response.get("http")
            if not isinstance(http, dict):
                continue
            for device, address in sorted(http.items()):
                merged[device] = (str(address[0]), int(address[1]))
        return merged

    def telemetry_targets(self) -> List[Tuple[str, int]]:
        """Every agent's planned (host, port) telemetry address."""
        return [
            ("127.0.0.1", port)
            for _, port in sorted(self.plan.http_ports.items())
        ]
