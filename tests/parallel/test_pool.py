"""Engine selection, worker resolution, lifecycle and crash detection of the pool."""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.parallel.pool import (
    _LOST_GRACE_POLLS,
    RETRY_BACKOFF_ENV,
    TASK_RETRIES_ENV,
    TASK_TIMEOUT_ENV,
    WORKERS_ENV,
    MapReport,
    ShardedExecutor,
    maybe_executor,
    resolve_workers,
    retry_backoff,
    task_retries,
    task_timeout,
)
from repro.parallel.shm import shared_memory_available
from repro.timing.arrays import GraphArrays
from repro.timing.sta import longest_path_from_arrays

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


# ----------------------------------------------------------------------
# Worker-count resolution and environment overrides
# ----------------------------------------------------------------------
def test_explicit_workers_beat_the_environment(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "4")
    assert resolve_workers(2) == 2
    assert resolve_workers(None) == 4


def test_workers_default_to_one(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert resolve_workers(None) == 1


@pytest.mark.parametrize("raw", ["two", "", "1.5"])
def test_non_integer_workers_env_raises(monkeypatch, raw):
    monkeypatch.setenv(WORKERS_ENV, raw)
    with pytest.raises(ValueError, match=WORKERS_ENV):
        resolve_workers(None)


@pytest.mark.parametrize("raw", ["0", "-3"])
def test_non_positive_workers_env_raises(monkeypatch, raw):
    monkeypatch.setenv(WORKERS_ENV, raw)
    with pytest.raises(ValueError, match="positive"):
        resolve_workers(None)


@pytest.mark.parametrize("workers", [0, -1])
def test_non_positive_explicit_workers_raise(workers):
    with pytest.raises(ValueError, match="positive"):
        ShardedExecutor(workers=workers)


@pytest.mark.parametrize("workers", [2.7, 1.5, "3"])
def test_non_integral_explicit_workers_raise(workers):
    # int() would silently truncate 2.7 -> 2 and shard less than asked.
    with pytest.raises(ValueError, match="integral"):
        resolve_workers(workers)


def test_integral_float_workers_accepted():
    assert resolve_workers(2.0) == 2


@pytest.mark.parametrize("raw", ["soon", "", "0", "-2", "nan", "inf"])
def test_task_timeout_env_validation(monkeypatch, raw):
    monkeypatch.setenv(TASK_TIMEOUT_ENV, raw)
    with pytest.raises(ValueError, match=TASK_TIMEOUT_ENV):
        task_timeout()


def test_task_timeout_env_resolution(monkeypatch):
    monkeypatch.delenv(TASK_TIMEOUT_ENV, raising=False)
    assert task_timeout() is None
    monkeypatch.setenv(TASK_TIMEOUT_ENV, "12.5")
    assert task_timeout() == 12.5


@pytest.mark.parametrize("raw", ["many", "1.5", "-1"])
def test_task_retries_env_validation(monkeypatch, raw):
    monkeypatch.setenv(TASK_RETRIES_ENV, raw)
    with pytest.raises(ValueError, match=TASK_RETRIES_ENV):
        task_retries()


def test_task_retries_env_resolution(monkeypatch):
    monkeypatch.delenv(TASK_RETRIES_ENV, raising=False)
    assert task_retries() == 2
    monkeypatch.setenv(TASK_RETRIES_ENV, "0")
    assert task_retries() == 0


@pytest.mark.parametrize("raw", ["slow", "-0.1", "nan", "inf"])
def test_retry_backoff_env_validation(monkeypatch, raw):
    monkeypatch.setenv(RETRY_BACKOFF_ENV, raw)
    with pytest.raises(ValueError, match=RETRY_BACKOFF_ENV):
        retry_backoff()


def test_retry_backoff_env_resolution(monkeypatch):
    monkeypatch.delenv(RETRY_BACKOFF_ENV, raising=False)
    assert retry_backoff() == 0.05
    monkeypatch.setenv(RETRY_BACKOFF_ENV, "0")
    assert retry_backoff() == 0.0


# ----------------------------------------------------------------------
# Engine selection and graceful fallback
# ----------------------------------------------------------------------
def test_single_worker_falls_back_to_serial(adder_graph):
    arrays = GraphArrays.from_graph(adder_graph)
    with ShardedExecutor(workers=1) as executor:
        assert executor.engine == "serial"
        assert executor.fallback_reason == "single worker requested"
        results = executor.run("corner_delay", [0.0, 1.5], arrays)
    assert results == [
        longest_path_from_arrays(arrays, 0.0),
        longest_path_from_arrays(arrays, 1.5),
    ]


def test_maybe_executor_resolution(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    # Nothing requested anywhere: the consumer runs its plain serial path.
    assert maybe_executor(None, None) is None
    # A given executor is passed through untouched.
    with ShardedExecutor(workers=1) as executor:
        assert maybe_executor(None, executor) is executor
        assert maybe_executor(3, executor) is executor


def test_maybe_executor_reads_the_environment(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "1")
    executor = maybe_executor(None, None)
    assert executor is not None
    assert executor.workers == 1
    assert executor.engine == "serial"


def test_unknown_task_fails_before_any_work(adder_graph):
    arrays = GraphArrays.from_graph(adder_graph)
    with ShardedExecutor(workers=1) as executor:
        with pytest.raises(KeyError):
            executor.run("no_such_task", [1, 2, 3], arrays)


def test_run_after_close_raises():
    executor = ShardedExecutor(workers=1)
    executor.close()
    executor.close()  # idempotent
    with pytest.raises(ValueError, match="closed"):
        executor.run("corner_delay", [0.0])


def test_empty_payloads_short_circuit(adder_graph):
    arrays = GraphArrays.from_graph(adder_graph)
    with ShardedExecutor(workers=1) as executor:
        assert executor.run("corner_delay", [], arrays) == []


# ----------------------------------------------------------------------
# Process engine
# ----------------------------------------------------------------------
def test_process_pool_matches_serial(adder_graph, process_executor):
    arrays = GraphArrays.from_graph(adder_graph)
    offsets = [0.0, 1.5, -1.5, 3.0]
    parallel = process_executor.run("corner_delay", offsets, arrays)
    assert parallel == [
        longest_path_from_arrays(arrays, offset) for offset in offsets
    ]


def test_snapshot_republished_only_on_revision_change(adder_graph, process_executor):
    graph = adder_graph.copy()
    graph.enable_journal()
    arrays = GraphArrays.from_graph(graph)
    process_executor.run("corner_delay", [0.0], arrays)
    first = process_executor._published[id(arrays)][1]
    process_executor.run("corner_delay", [1.0], arrays)
    assert process_executor._published[id(arrays)][1] is first
    # A graph edit moves the revision on: the stale snapshot is replaced.
    edge = graph.edges[0]
    graph.replace_edge_delay(edge, edge.delay.scale(1.1))
    arrays.refresh()
    process_executor.run("corner_delay", [0.0], arrays)
    second = process_executor._published[id(arrays)][1]
    assert second is not first
    assert first.closed
    assert second.revision == arrays.revision


@pytest.mark.skipif(
    not shared_memory_available(), reason="no working shared memory on this host"
)
def test_pool_shutdown_leaves_no_resource_tracker_noise(tmp_path):
    """End-to-end pool run in a fresh interpreter: clean tracker books.

    Worker attachments must stay invisible to the (shared) resource
    tracker; a stray register/unregister from a worker corrupts the
    owner's entry and sprays ``resource_tracker`` warnings or ``KeyError``
    tracebacks on interpreter exit.
    """
    script = tmp_path / "tracker_check.py"
    script.write_text(
        textwrap.dedent(
            """
            import sys
            sys.path.insert(0, %r)


            def main():
                import numpy as np
                from repro.core.canonical import CanonicalForm
                from repro.parallel.pool import ShardedExecutor
                from repro.timing.arrays import GraphArrays
                from repro.timing.graph import TimingGraph

                graph = TimingGraph("tracker", 2)
                graph.mark_input("a")
                graph.mark_output("z")
                graph.add_edge(
                    "a", "m", CanonicalForm(10.0, 0.5, np.array([0.2, 0.1]), 0.3)
                )
                graph.add_edge(
                    "m", "z", CanonicalForm(4.0, 0.1, np.array([0.05, 0.05]), 0.1)
                )
                arrays = GraphArrays.from_graph(graph)
                with ShardedExecutor(workers=2) as executor:
                    assert executor.engine == "process", executor.fallback_reason
                    results = executor.run("corner_delay", [0.0, 3.0, -3.0], arrays)
                assert len(results) == 3


            if __name__ == "__main__":
                main()
            """
            % SRC_DIR
        )
    )
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert completed.returncode == 0, completed.stderr
    assert "resource_tracker" not in completed.stderr, completed.stderr
    assert "Traceback" not in completed.stderr, completed.stderr


# ----------------------------------------------------------------------
# Bounded shutdown and nested-pool fallback
# ----------------------------------------------------------------------
def test_close_timeout_escalates_past_a_hung_worker(monkeypatch, tmp_path):
    """``close(timeout=)`` must return even with a worker wedged mid-task.

    A worker-hang plan (armed before pool creation, so the spawned workers
    inherit it) wedges the first task in a five-minute sleep; a patient
    ``Pool.join()`` would block on it.  The bounded close escalates to
    ``terminate()`` after the deadline and returns in seconds.
    """
    monkeypatch.setenv(
        "REPRO_FAULT_PLAN", "worker-hang@1:seconds=300"
    )
    executor = ShardedExecutor(workers=2)
    if executor.engine != "process":
        executor.close()
        pytest.skip("process engine unavailable: %s" % executor.fallback_reason)
    pool = executor._ensure_pool()
    # Fire-and-forget: the worker hangs inside the fault seam before the
    # task body runs, exactly like a stuck task in production.
    from repro.parallel.pool import _invoke

    pool.apply_async(_invoke, (("corner_delay", None, 0.0),))
    time.sleep(1.0)  # let the worker reach the sleep

    start = time.monotonic()
    executor.close(timeout=2.0)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, "close blocked on the hung worker (%.1fs)" % elapsed
    assert executor.closed


def test_worker_probe_reports_daemon_serial_fallback(process_executor):
    """Inside a real pool worker ``maybe_executor`` must resolve to ``None``.

    Pool workers are daemonic and may not spawn children; even with
    ``REPRO_WORKERS`` exported in the worker's environment the nested-pool
    guard has to choose the serial path — this exercises the guard in an
    actual daemon process rather than a monkeypatched stand-in.
    """
    (probe,) = process_executor.run(
        "worker_probe", [{"env": {WORKERS_ENV: "4"}}]
    )
    assert probe["pid"] != os.getpid()
    assert probe["daemon"] is True
    assert probe["maybe_executor"] is None


def test_atexit_close_warns_instead_of_passing_silently(monkeypatch):
    """The exit hook must surface shutdown failures as one warning."""
    import warnings

    from repro.parallel import pool as pool_module

    class _Unclosable:
        def close(self, timeout=None):
            raise OSError("semaphore already gone")

    monkeypatch.setattr(pool_module, "_SHARED", {99: _Unclosable()})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pool_module._close_shared_executors()
    assert pool_module._SHARED == {}
    (warning,) = [w for w in caught if w.category is RuntimeWarning]
    assert "semaphore already gone" in str(warning.message)


# ----------------------------------------------------------------------
# Crash detection
# ----------------------------------------------------------------------
class _FakeWorker:
    def __init__(self, pid):
        self.pid = pid


class _FakePool:
    """A pool whose worker PIDs and task results a test scripts."""

    def __init__(self, pids, results=()):
        self._pool = [_FakeWorker(pid) for pid in pids]
        self.results = list(results)

    def apply_async(self, _function, _args):
        return self.results.pop(0)

    def terminate(self):
        pass

    def close(self):
        pass

    def join(self):
        pass


class _ScriptedResult:
    """An async result whose ``get`` calls ``answer(poll)`` (1-based)."""

    def __init__(self, answer):
        self.answer = answer
        self.polls = 0

    def get(self, _timeout):
        self.polls += 1
        return self.answer(self.polls)

    def ready(self):
        return False


def test_harvest_sees_a_worker_replaced_before_it_started(monkeypatch):
    """A worker dies while an earlier task of the round is harvested, and
    the pool replaces it before the next harvest starts.  The task the dead
    worker owned must be declared lost within ``_LOST_GRACE_POLLS`` polls
    of its harvest, with no deadline set: a PID baseline taken when that
    harvest starts already holds the replacement and never sees a change.
    """
    monkeypatch.delenv(TASK_TIMEOUT_ENV, raising=False)
    first = _FakePool([101, 102])

    def replace_worker_then_finish(_poll):
        first._pool[1] = _FakeWorker(103)  # worker 102 died and was replaced
        return "result 0"

    def never_arrives(poll):
        if poll > 10 * _LOST_GRACE_POLLS:
            return "stale"  # ends a harvest that missed the death
        raise multiprocessing.TimeoutError

    lost = _ScriptedResult(never_arrives)
    first.results = [_ScriptedResult(replace_worker_then_finish), lost]
    pools = [first, _FakePool([201, 202], [_ScriptedResult(lambda _poll: "result 1")])]

    executor = ShardedExecutor(workers=2)

    def ensure_pool():
        if executor._pool is None:
            executor._pool = pools.pop(0)
        return executor._pool

    monkeypatch.setattr(executor, "_ensure_pool", ensure_pool)
    report = MapReport(task="corner_delay", engine="process", tasks=2)
    with executor:
        results = executor._run_process(
            None, "corner_delay", [0.0, 1.0], None, report
        )
    assert results == ["result 0", "result 1"]
    assert lost.polls == _LOST_GRACE_POLLS
    assert (report.timeouts, report.respawns, report.degraded) == (1, 1, 0)
