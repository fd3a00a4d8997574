"""Call-graph rules: blocking calls reachable from a coroutine through
zero or more sync helpers (ASYNC009), coroutines never awaited across
modules (ASYNC002), and task handles with no sink (ASYNC003).

Every test builds its whole program inline: each source string becomes
one :class:`ModuleSummary` via :func:`summarize_module` and the set is
handed to :class:`CallGraph` -- nothing is imported or executed.
"""

import ast
import textwrap

from repro.checkers import CallGraph, summarize_module


def _analyze(sources):
    """sources: {module_name: source} -> (findings, graph)."""
    summaries = [
        summarize_module(ast.parse(textwrap.dedent(src)), f"{name}.py", name)
        for name, src in sources.items()
    ]
    graph = CallGraph(summaries)
    return graph.check(), graph


def _rules(findings):
    return sorted({f.rule for f in findings})


# -- ASYNC009: blocking call on the event loop -------------------------------


def test_async009_blocking_reachable_through_sync_chain():
    findings, graph = _analyze(
        {
            "prog": """
            import time

            def low():
                time.sleep(1)

            def mid():
                low()

            async def top():
                mid()
            """
        }
    )
    assert _rules(findings) == ["ASYNC009"]
    (finding,) = findings
    assert "blocking call 'time.sleep'" in finding.message
    assert "'async def top'" in finding.message
    # The full helper chain is spelled out, hop by hop.
    assert "low" in finding.message and "->" in finding.message
    assert len(graph.functions) == 3
    assert graph.call_edges >= 2


def test_async009_zero_hops_is_the_call_in_the_coroutine_itself():
    findings, _graph = _analyze(
        {
            "prog": """
            import subprocess
            from time import sleep

            async def heartbeat():
                sleep(0.5)
                subprocess.run(["true"])
                with open("log") as handle:
                    handle.write("x")

            def sync_path():
                sleep(0.0)
            """
        }
    )
    assert [(f.rule, f.line) for f in findings] == [
        ("ASYNC009", 6),
        ("ASYNC009", 7),
        ("ASYNC009", 8),
    ]
    assert "blocking call 'time.sleep' inside 'async def heartbeat'" in (
        findings[0].message
    )


def test_async009_crosses_module_boundaries():
    findings, _graph = _analyze(
        {
            "app": """
            from helpers import helper

            async def entry():
                helper()
            """,
            "helpers": """
            import time

            def helper():
                time.sleep(0.5)
            """,
        }
    )
    assert _rules(findings) == ["ASYNC009"]
    (finding,) = findings
    assert finding.path == "app.py"
    assert "helpers.py" in finding.message  # chain names the callee's file


def test_async009_negative_await_chain_and_executor():
    findings, _graph = _analyze(
        {
            "prog": """
            import asyncio
            import time

            def low():
                time.sleep(1)

            async def alow():
                await asyncio.sleep(1)

            async def top():
                await alow()
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, low)
            """
        }
    )
    assert findings == []


# -- ASYNC002: coroutine never awaited ---------------------------------------


def test_async002_resolves_the_coroutine_across_modules():
    findings, _graph = _analyze(
        {
            "app": """
            from jobs import refresh

            def kick():
                refresh()

            async def fine():
                await refresh()
                task = refresh()
                return task
            """,
            "jobs": """
            async def refresh():
                pass
            """,
        }
    )
    assert [(f.rule, f.path, f.line) for f in findings] == [
        ("ASYNC002", "app.py", 5)
    ]
    assert "coroutine 'refresh(...)' is never awaited" in findings[0].message


# -- ASYNC003: task handle with no sink --------------------------------------


def test_async003_dropped_or_unread_handles():
    findings, _graph = _analyze(
        {
            "prog": """
            import asyncio

            async def worker():
                raise RuntimeError("boom")

            async def dropped():
                asyncio.create_task(worker())

            async def unread():
                task = asyncio.ensure_future(worker())

            class Owner:
                def start(self):
                    self._orphan = asyncio.get_running_loop().create_task(
                        worker()
                    )
            """
        }
    )
    assert [(f.rule, f.line) for f in findings] == [
        ("ASYNC003", 8),
        ("ASYNC003", 11),
        ("ASYNC003", 15),
    ]
    assert "the handle is dropped outright" in findings[0].message
    assert "handle 'task' is never read" in findings[1].message
    assert "handle '_orphan' is never read" in findings[2].message


def test_async003_negative_awaited_or_retained_handles():
    findings, _graph = _analyze(
        {
            "prog": """
            import asyncio

            async def worker():
                return 1

            async def awaited():
                task = asyncio.create_task(worker())
                await task

            class Owner:
                def start(self):
                    self._task = asyncio.ensure_future(worker())

                def stop(self):
                    self._task.cancel()
            """
        }
    )
    assert findings == []
