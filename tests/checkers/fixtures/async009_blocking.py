"""ASYNC009: a blocking call on the event loop stalls every coroutine."""

import socket
import subprocess
import time


def settle_pause() -> None:
    time.sleep(0.1)


async def heartbeat() -> None:
    time.sleep(0.5)  # expect: ASYNC009


async def probe(host: str) -> None:
    sock = socket.create_connection((host, 80))  # expect: ASYNC009
    sock.close()


async def shell() -> None:
    subprocess.run(["true"])  # expect: ASYNC009


async def one_hop_away() -> None:
    settle_pause()  # expect: ASYNC009


def sync_path() -> None:
    # The same calls are fine outside coroutines.
    time.sleep(0.0)
    settle_pause()
