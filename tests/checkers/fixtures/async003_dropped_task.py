"""ASYNC003: a task handle with no sink -- nothing can cancel the task,
it can be GC'd mid-run, and its exception is lost with it."""

import asyncio


async def worker() -> None:
    await asyncio.sleep(0)


async def spawn_and_forget() -> None:
    asyncio.create_task(worker())  # expect: ASYNC003


async def spawn_and_lose() -> None:
    lost = asyncio.ensure_future(worker())  # expect: ASYNC003


async def spawn_and_keep() -> "asyncio.Task[None]":
    handle = asyncio.create_task(worker())
    return handle
