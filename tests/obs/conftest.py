"""Fixtures for observability tests.

The runtime smoke test boots a real asyncio/TCP cluster, so this
mirrors the ``run`` / ``fast_options`` fixtures of ``tests/runtime``
(no pytest-asyncio: coroutines run through ``asyncio.run`` under a
hard ``wait_for`` deadline).
"""

import asyncio

import pytest

ASYNC_TEST_TIMEOUT = 120.0


def run_async(coroutine, timeout: float = ASYNC_TEST_TIMEOUT):
    return asyncio.run(asyncio.wait_for(coroutine, timeout))


@pytest.fixture()
def run():
    return run_async


FAST_CLUSTER = dict(
    keepalive_interval=0.05,
    hold_multiplier=3.0,
    op_timeout=30.0,
)


@pytest.fixture()
def fast_options():
    return dict(FAST_CLUSTER)
