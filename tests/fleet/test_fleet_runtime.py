"""End-to-end fleet runtime: real worker processes over real sockets.

These tests spawn actual ``python -m repro.fleet.worker`` subprocesses
via the launcher, so they exercise the full stack: spec serialization,
deterministic rebuild, the control protocol, cross-shard TCP sessions,
federated quiescence and the telemetry federation.
"""

import os
import signal
import time

import pytest

from repro.cli import _fleet_simulator_parity
from repro.fleet.launcher import FleetLauncher, WorkerCrashed
from repro.fleet.spec import FleetSpec
from repro.obs.collector import Collector
from repro.obs.flight import causal_chain, merge_dumps, render_chain

from .conftest import port_base


def _spec(salt: int, **overrides) -> FleetSpec:
    fields = dict(
        topology="ft4",
        workers=2,
        base_port=port_base(salt),
        destinations=4,
        ingresses=8,
        keepalive_interval=0.25,
        op_timeout=60.0,
    )
    fields.update(overrides)
    return FleetSpec(**fields)


class TestFleetSmoke:
    def test_two_worker_fleet_converges_with_simulator_parity(self, run):
        spec = _spec(4)

        async def drive():
            launcher = FleetLauncher(spec)
            try:
                await launcher.start(ready_timeout=120.0)
                install_seconds = await launcher.install_plans()
                verdicts = await launcher.verdicts()
                holds = launcher.holds(verdicts)
                snapshot = await Collector(
                    launcher.telemetry_targets()
                ).scrape_once()
            finally:
                await launcher.stop()
            exits = {
                index: handle.process.poll()
                for index, handle in launcher.workers.items()
            }
            return install_seconds, verdicts, holds, snapshot, exits

        install_seconds, verdicts, holds, snapshot, exits = run(drive())
        assert install_seconds > 0.0
        assert len(holds) == 4 and all(holds.values())
        # Every ingress row made it across the shard merge.
        assert all(len(rows) >= 1 for rows in verdicts.values())
        # The on-device fleet agrees with the centralized simulator.
        assert _fleet_simulator_parity(spec, verdicts, 0, lambda _: None)
        # Federated observability spans both workers' agents.
        assert snapshot.state == "ok"
        assert len(snapshot.samples) == 20
        # Graceful drain: every worker exited cleanly, none were killed.
        assert exits == {0: 0, 1: 0}


class TestExactSettle:
    def test_cross_shard_frame_held_back_is_not_read_past(
        self, run, tmp_path, monkeypatch
    ):
        """The fleet twin of tests/runtime/test_exact_convergence.py:
        update 0 of this stream is applied on worker 0 and moves
        verdicts rooted on both workers; its first cross-shard frame is
        held back (tests/hold_back/sitecustomize.py) for longer than the old
        settle window.  ``apply_update`` must still return only once the
        merged verdicts equal the simulator's."""
        flag = tmp_path / "hold-next-cross-shard-frame"
        hold_dir = os.path.join(
            os.path.dirname(os.path.dirname(__file__)), "hold_back"
        )
        monkeypatch.setenv("REPRO_TEST_HOLD_FLAG", str(flag))
        monkeypatch.setenv("PYTHONPATH", hold_dir, prepend=os.pathsep)
        spec = _spec(3)

        async def drive():
            launcher = FleetLauncher(spec)
            try:
                await launcher.start(ready_timeout=120.0)
                await launcher.install_plans()
                before = await launcher.verdicts()
                flag.write_text("armed")
                started = time.monotonic()
                await launcher.apply_update(0, 1)
                elapsed = time.monotonic() - started
                return before, await launcher.verdicts(), elapsed
            finally:
                await launcher.stop()

        before, after, elapsed = run(drive())
        assert not flag.exists(), "no cross-shard frame was held back"
        assert after != before, "the update moved no verdict: vacuous"
        assert _fleet_simulator_parity(spec, after, 1, lambda _: None)
        assert elapsed >= 0.3  # the operation waited the hold out


class TestWorkerCrash:
    def test_crash_is_detected_and_survivors_settle_on_their_own(
        self, run
    ):
        spec = _spec(5)

        async def drive():
            import asyncio

            launcher = FleetLauncher(spec)
            results = {}
            try:
                await launcher.start(ready_timeout=120.0)
                await launcher.install_plans()

                # SIGKILL one worker: no drain, sessions just go dark.
                victim = launcher.workers[1].process
                os.kill(victim.pid, signal.SIGKILL)
                deadline = time.monotonic() + 10.0
                while victim.poll() is None:
                    assert time.monotonic() < deadline
                    await asyncio.sleep(0.05)

                with pytest.raises(WorkerCrashed) as crashed:
                    launcher.check_alive()
                results["crashed"] = crashed.value.workers

                # The survivor notices the dead peer and settles on its
                # own, exactly: every cross-shard end ran on_peer_down
                # (none is left live or in transition), so links whose
                # remote end is gone count as balanced.  The long-poll
                # paces this loop; nothing waits for a timeout.
                started = time.monotonic()
                while True:
                    status = await launcher.call_worker(
                        0, {"op": "status", "wait": 10.0}
                    )
                    if status["settled_local"] and not status["links"]:
                        break
                    assert time.monotonic() < started + 30.0
                results["survivor"] = status
                results["survivor_settle_seconds"] = (
                    time.monotonic() - started
                )

                # The surviving shard's flight recorders captured the
                # loss: grab their dumps before the fleet recovers.
                flight = await launcher.call_worker(
                    0, {"op": "dump_flight"}
                )
                results["flight"] = flight["flight"]

                # The stop ladder on real processes: a frozen worker
                # answers neither the stop op nor SIGTERM, so stop()
                # returns only because it escalates to SIGKILL.
                os.kill(launcher.workers[0].process.pid, signal.SIGSTOP)
                await launcher.stop(grace=0.3)
                results["exits"] = {
                    index: handle.process.poll()
                    for index, handle in launcher.workers.items()
                }
            finally:
                await launcher.stop()
            return results

        results = run(drive(), timeout=300.0)
        assert results["crashed"] == [1]
        survivor = results["survivor"]
        assert int(survivor["peer_down_events"]) > 0
        assert int(survivor["peers_down"]) > 0
        # Loss detection is the sockets' EOF, not a hold or op timeout.
        assert results["survivor_settle_seconds"] < 5.0
        assert int(survivor["sessions_established"]) < 2 * 32 - 0
        assert results["exits"] == {0: -signal.SIGKILL, 1: -signal.SIGKILL}

        # Forensics: surviving agents auto-snapshotted on the peer loss,
        # and the causal chain behind the peer_down event names the dead
        # peer's last session edge (what `repro explain` renders).
        merged = merge_dumps(results["flight"])
        assert any(
            snap.get("reason") == "peer_down"
            for snaps in merged["snapshots"].values()
            for snap in snaps
        )
        downs = [
            event
            for event in merged["events"]
            if event.get("etype") == "peer_down"
        ]
        assert downs, "survivors recorded no peer_down event"
        target = downs[-1]
        chain = causal_chain(merged, target=target)
        assert chain[-1]["etype"] == "peer_down"
        session_edges = [
            event for event in chain if event.get("etype") == "session"
        ]
        assert session_edges, "chain does not reach a session FSM edge"
        assert session_edges[-1]["peer"] == target["peer"]
        assert target["peer"] in render_chain(chain)
