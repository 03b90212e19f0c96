"""Shared fixtures of the parallel-subsystem suite.

Spawning a process pool costs whole seconds (every worker re-imports
numpy and the package), so the pools are session-scoped and shared across
all modules of this directory; tests never mutate executor state beyond
running tasks.
"""

from __future__ import annotations

import pytest

from repro.parallel.pool import ShardedExecutor


def _process_pool(workers: int) -> ShardedExecutor:
    executor = ShardedExecutor(workers=workers)
    if executor.engine != "process":
        reason = executor.fallback_reason
        executor.close()
        pytest.skip("process engine unavailable: %s" % reason)
    return executor


@pytest.fixture(scope="session")
def process_executor():
    """A session-wide 2-worker process executor."""
    executor = _process_pool(2)
    yield executor
    executor.close()


@pytest.fixture(scope="session")
def four_worker_executor():
    """A session-wide 4-worker process executor (the {1,2,4} parity grid)."""
    executor = _process_pool(4)
    yield executor
    executor.close()
