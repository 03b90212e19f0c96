"""Shared machinery of the chaos suite.

Every test here runs the *real* engines under an armed fault plan — no
mocks.  Two constraints shape the fixtures:

* spawned pool workers snapshot ``os.environ`` at pool-creation time, so
  a test must arm ``REPRO_FAULT_PLAN`` (monkeypatch) **before** creating
  its own executor — the session-scoped pools of ``tests/parallel`` are
  useless here and every chaos test pays for a fresh 2-worker pool;
* recovery re-executes work, so every plan carries a ``fuse=`` file: the
  fault fires exactly once across all processes, and the consumed fuse is
  the proof the run was actually disturbed (no vacuous passes).
"""

from __future__ import annotations

import pytest

from repro.faults import FAULT_PLAN_ENV, reset_fault_state
from repro.parallel.pool import TASK_TIMEOUT_ENV, ShardedExecutor, WORKERS_ENV

#: Worker count of every chaos executor (two is the smallest pool where a
#: surviving worker can pick up a dead sibling's requeued work).
CHAOS_WORKERS = 2


@pytest.fixture(autouse=True)
def _clean_fault_environment(monkeypatch):
    """Fault-free baseline: no leaked plan/timeout/worker env, fresh counters."""
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    monkeypatch.delenv(TASK_TIMEOUT_ENV, raising=False)
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    reset_fault_state()
    yield
    reset_fault_state()


@pytest.fixture
def chaos_executor_factory():
    """Build fresh process executors (after the test armed its plan).

    Skips when the host has no working shared memory; closes every
    executor it built with a bounded timeout — a chaos test may leave a
    worker wedged in an injected hang, and teardown must not block on it.
    """
    built = []

    def factory(workers: int = CHAOS_WORKERS) -> ShardedExecutor:
        executor = ShardedExecutor(workers=workers)
        if executor.engine != "process":
            reason = executor.fallback_reason
            executor.close()
            pytest.skip("process engine unavailable: %s" % reason)
        built.append(executor)
        return executor

    yield factory
    for executor in built:
        executor.close(timeout=15)


@pytest.fixture
def fuse_file(tmp_path):
    """An armed fuse file (exists = the fault may still fire)."""
    fuse = tmp_path / "fault.fuse"
    fuse.write_text("armed")
    return fuse
