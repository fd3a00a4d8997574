"""Fixtures for runtime (asyncio/TCP testbed) tests.

No pytest-asyncio here: async tests run through the ``run`` fixture,
which wraps every coroutine in ``asyncio.wait_for`` so a hung testbed
fails the test instead of hanging the suite.
"""

import asyncio

import pytest

#: Outer guard; individual cluster operations carry tighter deadlines.
ASYNC_TEST_TIMEOUT = 120.0


def run_async(coroutine, timeout: float = ASYNC_TEST_TIMEOUT):
    """Run ``coroutine`` on a fresh loop with a hard timeout."""
    return asyncio.run(asyncio.wait_for(coroutine, timeout))


@pytest.fixture()
def run():
    return run_async


#: Cluster options tuned for tests: fast keepalives/backoff so loss
#: detection and reconnection finish in tens of milliseconds.
FAST_CLUSTER = dict(
    keepalive_interval=0.05,
    hold_multiplier=3.0,
    op_timeout=30.0,
)


@pytest.fixture()
def fast_options():
    return dict(FAST_CLUSTER)
