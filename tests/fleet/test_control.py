"""The fleet control protocol is one table, ``repro.fleet.control.OPS``:
the worker dispatches off it, the launcher takes deadlines from it, and
``docs/RUNTIME.md`` documents it.  No worker process is spawned here --
requests cross a real ``ControlServer`` socket to a test-local target,
over the launcher's persistent ``ControlChannel``.
"""

import asyncio
import json
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.fleet import control
from repro.fleet.launcher import FleetLauncher, WorkerHandle
from repro.fleet.spec import FleetSpec
from repro.fleet.worker import FleetWorker

RUNTIME_MD = Path(__file__).resolve().parents[2] / "docs" / "RUNTIME.md"


class Target:
    """``ping`` answers whatever the test sets; ``echo`` is a new op.

    ``seen`` lists every echoed ``text`` as it arrives, and ``tasks``
    the serving task of each, one per connection."""

    answer = {"worker": 0, "ready": True, "devices": 1}

    def __init__(self):
        self.seen = []
        self.tasks = []

    async def _op_ping(self):
        return dict(self.answer)

    async def _op_echo(self, text="", times=1, delay=0.0):
        self.seen.append(text)
        self.tasks.append(asyncio.current_task())
        await asyncio.sleep(delay)
        return {"text": text * times}

    async def _op_vanish(self):
        """The worker drops the connection before it answers."""
        self.seen.append("vanish")
        raise asyncio.CancelledError


@pytest.fixture()
def echo_row(monkeypatch):
    monkeypatch.setitem(
        control.OPS,
        "echo",
        control.Op({"text": str, "times": int, "delay": float}, ("text",), 1.0),
    )
    monkeypatch.setitem(control.OPS, "vanish", control.Op({}, (), 1.0))


def serve(run, target, drive):
    """Run ``drive(server, channel)`` against a live server."""

    async def main():
        server = control.ControlServer(target)
        await server.start()
        channel = control.ControlChannel("127.0.0.1", server.port)
        try:
            return await drive(server, channel)
        finally:
            channel.close()
            await server.stop()

    return run(main(), timeout=30.0)


def exchange(run, target, request):
    async def drive(server, channel):
        return await channel.call(request, timeout=5.0)

    return serve(run, target, drive)


def echo(text, **fields):
    return {"op": "echo", "text": text, **fields}


def test_every_row_has_a_worker_method_and_no_method_lacks_a_row():
    methods = {
        name[len("_op_"):] for name in vars(FleetWorker) if name.startswith("_op_")
    }
    assert methods == set(control.OPS)


def test_worker_refuses_what_is_not_in_the_row(run):
    target = Target()
    assert exchange(run, target, {"op": "ping"}) == {**Target.answer, "ok": True}
    for request, named in [
        ({"op": "reboot"}, "unknown control op 'reboot'"),
        ({"no_op": 1}, "unknown control op None"),
        ({"op": "ping", "verbose": 1}, "takes no key 'verbose'"),
    ]:
        response = exchange(run, target, request)
        assert response["ok"] is False and named in response["error"]
    target.answer = {"worker": 0, "ready": True}
    response = exchange(run, target, {"op": "ping"})
    assert response["ok"] is False and "lacks key 'devices'" in response["error"]
    target.answer = {**Target.answer, "uptime": 3}
    response = exchange(run, target, {"op": "ping"})
    assert response["ok"] is False
    assert "undeclared key 'uptime'" in response["error"]


def test_a_new_op_is_one_row_plus_one_method(run, echo_row):
    request = {"op": "echo", "text": "ab", "times": "2"}  # coerced by the row
    assert exchange(run, Target(), request) == {"text": "abab", "ok": True}


def test_one_connection_answers_many_requests_in_order(run, echo_row):
    target = Target()

    async def drive(server, channel):
        answers = [
            (await channel.call(echo(str(n)), timeout=5.0))["text"]
            for n in range(3)
        ]
        # Pipelined on a raw connection: answered in request order.
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        writer.write(b"".join(
            json.dumps(echo(str(n), delay=0.03 * (5 - n))).encode() + b"\n"
            for n in range(3, 6)
        ))
        for _ in range(3):
            answers.append(json.loads(await reader.readline())["text"])
        writer.close()
        return answers

    assert serve(run, target, drive) == ["0", "1", "2", "3", "4", "5"]
    assert len(set(target.tasks[:3])) == 1  # the channel kept its connection
    assert target.seen == ["0", "1", "2", "3", "4", "5"]


def test_a_timed_out_or_cancelled_call_closes_its_connection(run, echo_row):
    target = Target()

    async def drive(server, channel):
        await channel.call(echo("warm"), timeout=5.0)
        with pytest.raises(asyncio.TimeoutError):
            await channel.call(echo("late", delay=0.3), timeout=0.05)
        after_timeout = await channel.call(echo("next"), timeout=5.0)
        pending = asyncio.ensure_future(
            channel.call(echo("dropped", delay=0.3), timeout=5.0)
        )
        while target.seen[-1] != "dropped":
            await asyncio.sleep(0.01)
        pending.cancel()
        with pytest.raises(asyncio.CancelledError):
            await pending
        after_cancel = await channel.call(echo("last"), timeout=5.0)
        await asyncio.sleep(0.4)  # the stale answers are written by now
        return after_timeout, after_cancel, await channel.call(
            echo("final"), timeout=5.0
        )

    answers = serve(run, target, drive)
    assert [answer["text"] for answer in answers] == ["next", "last", "final"]
    # A fresh connection after each abandoned call, and nothing resent.
    warm, late, after_timeout, dropped, last, final = target.tasks
    assert warm is late and late is not after_timeout
    assert after_timeout is dropped and dropped is not last
    assert last is final
    assert target.seen == ["warm", "late", "next", "dropped", "last", "final"]


def test_the_next_call_reconnects_and_a_failed_call_is_not_resent(
    run, echo_row
):
    target = Target()

    async def drive(server, channel):
        await channel.call(echo("one"), timeout=5.0)
        # The worker restarts while the connection is idle.
        await server.stop()
        await server.start()
        assert (await channel.call(echo("two"), timeout=5.0))["text"] == "two"
        # The connection drops while a request is in flight: the call
        # fails, and the request is not sent again.
        with pytest.raises(ConnectionError):
            await channel.call({"op": "vanish"}, timeout=5.0)
        return await channel.call(echo("three"), timeout=5.0)

    assert serve(run, target, drive)["text"] == "three"
    assert target.seen == ["one", "two", "vanish", "three"]


def test_stop_returns_while_a_client_is_still_connected(run, echo_row):
    async def drive(server, channel):
        await channel.call(echo("idle after this"), timeout=5.0)
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        await asyncio.wait_for(server.stop(), 1.0)
        # The server closed the connections it accepted.
        closed = await asyncio.wait_for(reader.read(), 1.0)
        writer.close()
        return closed

    assert serve(run, Target(), drive) == b""


def fake_worker(launcher, index):
    launcher.workers[index] = WorkerHandle(
        index,
        SimpleNamespace(poll=lambda: None),
        control.ControlChannel("127.0.0.1", index),
        log_path="",
    )


@pytest.fixture()
def launcher(tmp_path, monkeypatch):
    """An unstarted launcher over one fake live worker; ``sent`` records
    ``(request, timeout)`` of every control round-trip it attempts, and
    ``answers`` (settled, no cross-shard links by default) are what
    the workers answer, per call in order."""
    launcher = FleetLauncher(FleetSpec(), run_dir=str(tmp_path))
    fake_worker(launcher, 0)
    launcher.sent = []
    launcher.answers = []

    async def fake_call(channel, request, timeout):
        launcher.sent.append((dict(request), timeout))
        if launcher.answers:
            return {"ok": True, **launcher.answers.pop(0)}
        return {
            "ok": True, "worker": channel.port, "settled_local": True,
            "links": [], "seconds": 0.0,
        }

    monkeypatch.setattr(control.ControlChannel, "call", fake_call)
    return launcher


def test_launcher_refuses_before_sending(run, launcher):
    for request in ({"op": "reboot"}, {"op": "install", "lable": "typo"}):
        with pytest.raises(ValueError, match="reboot|lable"):
            run(launcher.call_worker(0, request))
        with pytest.raises(ValueError, match="reboot|lable"):
            run(launcher.broadcast(request))
    assert launcher.sent == []


def test_deadlines_come_from_the_rows(run, launcher):
    assert all(row.timeout > 0 for row in control.OPS.values())
    for name, row in control.OPS.items():
        run(launcher.call_worker(0, {"op": name}))
        run(launcher.broadcast({"op": name}))
        assert [timeout for _, timeout in launcher.sent[-2:]] == [row.timeout] * 2
    run(launcher.call_worker(0, {"op": "ping"}, timeout=0.5))
    assert launcher.sent[-1] == ({"op": "ping"}, 0.5)
    # settle's long-poll ends strictly inside the status deadline.
    run(launcher.settle())
    request, timeout = launcher.sent[-1]
    assert request["op"] == "status"
    assert 0 < request["wait"] < timeout == control.OPS["status"].timeout


def test_runtime_md_op_table_is_ops():
    documented = {}
    for line in RUNTIME_MD.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.split("|")[1:-1]]
        if len(cells) == 3 and re.fullmatch(r"`\w+`", cells[0]):
            op, request, response = (re.findall(r"`(\w+)`", c) for c in cells)
            documented[op[0]] = (request, response)
    assert documented == {
        name: (list(row.request), list(row.response))
        for name, row in control.OPS.items()
    }


def wave(worker, seconds, links=(), settled=True):
    return {
        "worker": worker, "settled_local": settled, "links": list(links),
        "seconds": seconds,
    }


def test_a_matched_injection_answer_ends_the_operation(run, launcher):
    fake_worker(launcher, 1)
    launcher.answers = [
        wave(0, 0.003, [["a", "b", 2, 1]]),
        wave(1, 0.005, [["b", "a", 1, 2]]),
    ]
    assert run(launcher.apply_update(4, 9)) == 0.005
    # One request per worker, and it is the injection itself.
    assert len(launcher.sent) == 2
    for request, timeout in launcher.sent:
        assert request["op"] == "update" and request["index"] == 4
        assert request["label"] == "fleet_update:4"
        assert 0 < request["wait"] < timeout == control.OPS["update"].timeout


def test_an_unmatched_injection_answer_falls_back_to_status_waves(
    run, launcher
):
    fake_worker(launcher, 1)
    launcher.answers = [
        wave(0, 0.002, [["a", "b", 1, 0]]),  # b has not handled a's frame
        wave(1, 0.001, [["b", "a", 0, 0]]),
        wave(0, 0.004, [["a", "b", 1, 1]], settled=False),
        wave(1, 0.009, [["b", "a", 1, 1]]),
        wave(0, 0.006, [["a", "b", 1, 1]]),
        wave(1, 0.003, [["b", "a", 1, 1]]),
    ]
    assert run(launcher.install_plans()) == 0.006  # the final wave's max
    assert [request["op"] for request, _ in launcher.sent] == (
        ["install"] * 2 + ["status"] * 4
    )
    for request, timeout in launcher.sent[2:]:
        assert 0 < request["wait"] < timeout == control.OPS["status"].timeout
