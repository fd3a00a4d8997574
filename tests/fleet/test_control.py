"""The fleet control protocol is one table, ``repro.fleet.control.OPS``:
the worker dispatches off it, the launcher takes deadlines from it, and
``docs/RUNTIME.md`` documents it.  No worker process is spawned here --
requests cross a real ``ControlServer`` socket to a test-local target.
"""

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
    """``ping`` answers whatever the test sets; ``echo`` is op thirteen."""

    answer = {"worker": 0, "ready": True, "devices": 1}

    async def _op_ping(self):
        return dict(self.answer)

    async def _op_echo(self, text="", times=1):
        return {"text": text * times}


def exchange(run, target, request):
    async def drive():
        server = control.ControlServer(target)
        await server.start()
        try:
            return await control.call(
                "127.0.0.1", server.port, request, timeout=5.0
            )
        finally:
            await server.stop()

    return run(drive())


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


def test_a_new_op_is_one_row_plus_one_method(run, monkeypatch):
    monkeypatch.setitem(
        control.OPS, "echo", control.Op({"text": str, "times": int}, ("text",), 1.0)
    )
    request = {"op": "echo", "text": "ab", "times": "2"}  # coerced by the row
    assert exchange(run, Target(), request) == {"text": "abab", "ok": True}


@pytest.fixture()
def launcher(tmp_path, monkeypatch):
    """An unstarted launcher over one fake live worker; ``sent`` records
    ``(request, timeout)`` of every control round-trip it attempts."""
    launcher = FleetLauncher(FleetSpec(), run_dir=str(tmp_path))
    process = SimpleNamespace(poll=lambda: None)
    launcher.workers[0] = WorkerHandle(0, process, control_port=1, log_path="")
    launcher.sent = []

    async def fake_call(host, port, request, timeout):
        launcher.sent.append((dict(request), timeout))
        return {"ok": True, "worker": 0, "settled_local": True, "links": []}

    monkeypatch.setattr(control, "call", fake_call)
    return launcher


def test_launcher_refuses_before_sending(run, launcher):
    for request in ({"op": "reboot"}, {"op": "begin", "lable": "typo"}):
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
