"""Closing a cluster is quiet: no redials, no orphaned tasks.

``RuntimeCluster.stop()`` stops its hosts one at a time.  A peer that is
still up must read the closed socket as the shutdown, not as a lost
session to redial, and a dial cancelled mid-handshake must close the
channel it opened, or the channel's writer task outlives the loop
("Task was destroyed but it is pending!").
"""

import asyncio
import gc

from repro.bench.workloads import build_workload
from repro.runtime.cluster import RuntimeCluster


def close_cluster(run, monkeypatch, dataset):
    """Install one destination on ``dataset``, then stop the cluster.

    Returns ``(dials, pending, handled)``: the TCP connects attempted
    once ``stop()`` began, the tasks still pending after it returned and
    the loop exception-handler calls of the whole run.
    """
    workload = build_workload(dataset, max_destinations=1)
    stopping = False
    dials = []
    handled = []
    connect = asyncio.open_connection

    async def counting_connect(*args, **kwargs):
        if stopping:
            dials.append(args)
        return await connect(*args, **kwargs)

    monkeypatch.setattr(asyncio, "open_connection", counting_connect)

    async def scenario():
        nonlocal stopping
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(lambda _, context: handled.append(context))
        running = asyncio.all_tasks()  # this one and the runner's guard
        cluster = RuntimeCluster(
            workload.topology, workload.fibs, workload.factory, http_enabled=False
        )
        await cluster.start()
        await cluster.install_plans(dict(workload.plans))
        stopping = True
        await cluster.stop()
        await asyncio.sleep(0.05)
        pending = [repr(task) for task in asyncio.all_tasks() - running]
        gc.collect()  # an orphaned task reports itself when collected
        return pending

    pending = run(scenario())
    return dials, pending, handled


def test_closing_stfd_dials_nothing(run, monkeypatch):
    dials, _, _ = close_cluster(run, monkeypatch, "STFD")
    assert dials == []


def test_closing_a_fattree_leaves_no_task_and_logs_nothing(run, monkeypatch):
    _, pending, handled = close_cluster(run, monkeypatch, "FT-48")
    assert pending == []
    assert handled == []
