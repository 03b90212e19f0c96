"""Persistent sharded worker pool over shared-memory graph snapshots.

:class:`ShardedExecutor` runs registered task functions (see
:mod:`repro.parallel.shard`) over lists of payloads, either in-process
(serial engine) or on a persistent pool of **spawned** worker processes
(process engine).  The executor picks the engine itself and degrades
gracefully:

* it runs the process engine only when more than one worker is
  requested, shared memory actually works on the host *and* spawned
  workers can import the parent's ``__main__`` (not so for a script read
  from standard input); otherwise it falls back to the serial engine and
  records why in :attr:`ShardedExecutor.fallback_reason`;
* the serial engine calls the task functions directly with the caller's
  live :class:`~repro.timing.arrays.GraphArrays` — zero copies, identical
  results (every task is written to be partition-deterministic);
* the process engine publishes the arrays once per graph revision as a
  :class:`~repro.parallel.shm.SharedGraphArrays` snapshot and ships only
  the small picklable handle with each task; workers lazily attach on
  first use and cache the attachment (see
  :func:`repro.parallel.shm.attach_cached`).

Failure behavior is a **specified contract**, not an accident of
``multiprocessing`` defaults.  The process engine submits every task
individually (``apply_async``) and harvests with a per-task deadline
(``REPRO_TASK_TIMEOUT``; unset means no deadline, but dead workers are
still detected by watching the pool's worker PIDs), so one crashed or
hung worker can no longer wedge an entire sharded sweep:

* a task that **raises** is retried up to ``REPRO_TASK_RETRIES`` times
  (default 2) on a deterministic exponential backoff schedule
  (``REPRO_RETRY_BACKOFF`` base seconds, no jitter), then falls back to
  an in-process serial execution of just that task;
* a **timeout or worker death** triggers one respawn-and-resubmit cycle:
  the pool is terminated, published shared-memory snapshots are dropped
  and re-published fresh, and the unfinished tasks are resubmitted; a
  second strike degrades the survivors to the serial engine;
* every run is summarised in a :class:`MapReport` (attempts, retries,
  timeouts, respawns, degraded count, fallback reason) available from
  :meth:`ShardedExecutor.run_with_report` or
  :attr:`ShardedExecutor.last_report`, so callers — and the chaos suite
  under :mod:`repro.faults` plans — can assert the recovery actually
  happened.

Re-execution is always safe: tasks are pure functions of
``(handle, payload)`` and Monte Carlo sampling is counter-based per
block, so a retried, respawned or serially degraded run stays
**bit-identical** to an undisturbed serial run.

Worker counts resolve from the explicit argument, else the
``REPRO_WORKERS`` environment variable, else 1; both are validated with a
clear ``ValueError``.  The pool uses the ``spawn`` start method so workers
never inherit interpreter state (fork-unsafe extensions, open segments).
:func:`shared_executor` keeps one process-wide executor per worker count so
repeated analyses amortise the pool start-up; all shared executors are
closed at interpreter exit with a bounded escalation (close, then
terminate) so a wedged worker cannot hang interpreter shutdown.
"""

from __future__ import annotations

import atexit
import os
import sys
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.parallel.shm import SharedGraphArrays, shared_memory_available

__all__ = [
    "MapReport",
    "RETRY_BACKOFF_ENV",
    "ShardedExecutor",
    "TASK_RETRIES_ENV",
    "TASK_TIMEOUT_ENV",
    "maybe_executor",
    "resolve_workers",
    "retry_backoff",
    "shared_executor",
    "task_retries",
    "task_timeout",
]

#: Environment variable overriding the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

#: Per-task harvest deadline in seconds (unset: no deadline, liveness only).
TASK_TIMEOUT_ENV = "REPRO_TASK_TIMEOUT"

#: Bounded retries of a task that raised (default 2).
TASK_RETRIES_ENV = "REPRO_TASK_RETRIES"

#: Base of the deterministic exponential backoff schedule (default 0.05 s).
RETRY_BACKOFF_ENV = "REPRO_RETRY_BACKOFF"

_DEFAULT_TASK_RETRIES = 2
_DEFAULT_RETRY_BACKOFF = 0.05

#: Harvest poll interval; dead workers surface within a few polls even
#: when no explicit deadline is configured.
_POLL_INTERVAL = 0.25

#: Polls a pending result survives after a worker death was observed
#: before the task is declared lost (its result can never arrive if the
#: dead worker owned it; a task on a surviving worker is just recomputed).
_LOST_GRACE_POLLS = 2

#: Dead-pool respawn-and-resubmit cycles per run.
_MAX_RESPAWNS = 1

#: Seconds the atexit hook waits for a clean pool shutdown before
#: escalating to ``terminate()``.
_ATEXIT_CLOSE_TIMEOUT = 10.0

#: Published snapshots an executor keeps alive at once (per source graph
#: the newest revision is kept; this bounds distinct graphs).
_PUBLISH_CACHE_MAX = 4


def resolve_workers(workers: Optional[int] = None) -> int:
    """Validated worker count: explicit argument > ``REPRO_WORKERS`` > 1.

    Raises ``ValueError`` on a non-integer or non-positive count, naming
    the offending source.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV)
        if raw is None:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(
                "%s must be an integer, got %r" % (WORKERS_ENV, raw)
            ) from None
        if workers <= 0:
            raise ValueError(
                "%s must be positive, got %d" % (WORKERS_ENV, workers)
            )
        return workers
    try:
        count = int(workers)
    except (TypeError, ValueError):
        raise ValueError(
            "workers must be an integral count, got %r" % (workers,)
        ) from None
    if count != workers:
        # int() would silently truncate 2.7 -> 2; demand an exact count.
        raise ValueError(
            "workers must be an integral count, got %r" % (workers,)
        )
    if count <= 0:
        raise ValueError("workers must be positive, got %d" % count)
    return count


def task_timeout() -> Optional[float]:
    """The per-task harvest deadline in seconds, or ``None`` when unset.

    Reads ``REPRO_TASK_TIMEOUT`` on every call (the chaos suite and batch
    jobs retune it per run) and validates it like the other numeric knobs:
    a non-numeric, non-positive or non-finite value raises ``ValueError``
    naming the variable.
    """
    raw = os.environ.get(TASK_TIMEOUT_ENV)
    if raw is None:
        return None
    try:
        timeout = float(raw)
    except ValueError:
        raise ValueError(
            "%s must be a number of seconds, got %r" % (TASK_TIMEOUT_ENV, raw)
        ) from None
    if not timeout > 0 or timeout != timeout or timeout == float("inf"):
        raise ValueError(
            "%s must be a positive finite number of seconds, got %r"
            % (TASK_TIMEOUT_ENV, raw)
        )
    return timeout


def task_retries() -> int:
    """Bounded retry count of a task that raised (default 2, may be 0)."""
    raw = os.environ.get(TASK_RETRIES_ENV)
    if raw is None:
        return _DEFAULT_TASK_RETRIES
    try:
        retries = int(raw)
    except ValueError:
        raise ValueError(
            "%s must be an integer, got %r" % (TASK_RETRIES_ENV, raw)
        ) from None
    if retries < 0:
        raise ValueError(
            "%s must be non-negative, got %d" % (TASK_RETRIES_ENV, retries)
        )
    return retries


def retry_backoff() -> float:
    """Base seconds of the deterministic backoff schedule (default 0.05).

    Retry ``k`` (1-based) of a task sleeps ``base * 2**(k-1)`` seconds —
    exponential, jitter-free, so recovery timing is reproducible.  A
    non-numeric, negative or non-finite value raises ``ValueError`` naming
    the variable.
    """
    raw = os.environ.get(RETRY_BACKOFF_ENV)
    if raw is None:
        return _DEFAULT_RETRY_BACKOFF
    try:
        backoff = float(raw)
    except ValueError:
        raise ValueError(
            "%s must be a number of seconds, got %r" % (RETRY_BACKOFF_ENV, raw)
        ) from None
    if not 0 <= backoff < float("inf"):
        raise ValueError(
            "%s must be a non-negative finite number of seconds, got %r"
            % (RETRY_BACKOFF_ENV, raw)
        )
    return backoff


@dataclass
class MapReport:
    """What one :meth:`ShardedExecutor.run` actually did to finish.

    A clean process-engine run has ``attempts == tasks`` and zeros
    everywhere else; any recovery leaves fingerprints the chaos suite (and
    production monitoring) can assert on.  ``degraded`` counts the tasks
    that ultimately ran on the in-process serial engine, and
    ``fallback_reason`` records why the first of them had to.
    """

    task: str
    engine: str
    tasks: int
    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    failures: int = 0
    respawns: int = 0
    degraded: int = 0
    fallback_reason: Optional[str] = None

    @property
    def clean(self) -> bool:
        """Whether the run finished without any recovery action."""
        return (
            self.retries == 0
            and self.timeouts == 0
            and self.failures == 0
            and self.respawns == 0
            and self.degraded == 0
        )


def _invoke(item: Tuple[str, object, object]):
    """Worker-side task trampoline (module-level: must be picklable)."""
    task_name, handle, payload = item
    from repro.faults import pool_fault_point

    pool_fault_point(task_name)
    from repro.parallel import shard

    arrays = None
    if handle is not None:
        from repro.parallel.shm import attach_cached

        arrays = attach_cached(handle).arrays
    return shard.TASKS[task_name](arrays, payload)


def _unimportable_main() -> Optional[str]:
    """Why spawned workers could not import ``__main__``, or ``None``.

    A spawned worker imports the parent's ``__main__`` by name when it has
    a module spec (``python -m``), else from its ``__file__``, a relative
    path taken against ``multiprocessing.process.ORIGINAL_DIR`` (as
    ``multiprocessing.spawn.get_preparation_data`` resolves it).  A script
    read from standard input (``python -``) names ``<stdin>``, which is no
    file: every worker would die importing it.
    """
    from multiprocessing import process

    main = sys.modules.get("__main__")
    if getattr(getattr(main, "__spec__", None), "name", None) is not None:
        return None
    path = getattr(main, "__file__", None)
    if path is None:
        return None
    resolved = path
    if not os.path.isabs(resolved) and process.ORIGINAL_DIR is not None:
        resolved = os.path.join(process.ORIGINAL_DIR, resolved)
    if os.path.isfile(resolved):
        return None
    return (
        "__main__ comes from %r, which is not a file spawned workers can "
        "import (%s)" % (path, resolved)
    )


class ShardedExecutor:
    """A reusable executor sharding task payloads across worker processes."""

    def __init__(self, workers: Optional[int] = None) -> None:
        self._workers = resolve_workers(workers)
        self.fallback_reason: Optional[str] = None
        #: Report of the most recent :meth:`run` (``None`` before any run).
        self.last_report: Optional[MapReport] = None
        if self._workers <= 1:
            self.fallback_reason = "single worker requested"
        elif not shared_memory_available():
            self.fallback_reason = "shared memory unavailable"
        else:
            self.fallback_reason = _unimportable_main()
        self._engine = "serial" if self.fallback_reason else "process"
        self._pool = None
        self._closed = False
        # graph id -> (strong ref to the source arrays, published snapshot).
        # The arrays reference pins the id so it cannot be recycled while
        # the snapshot entry is alive.
        self._published: Dict[int, Tuple[object, SharedGraphArrays]] = {}

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        """Resolved worker count (1 in serial mode still partitions work)."""
        return self._workers

    @property
    def engine(self) -> str:
        """The resolved engine: ``"serial"`` or ``"process"``."""
        return self._engine

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` already ran."""
        return self._closed

    # ------------------------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            import multiprocessing

            context = multiprocessing.get_context("spawn")
            self._pool = context.Pool(processes=self._workers)
        return self._pool

    def _worker_pids(self) -> Optional[frozenset]:
        """The live worker PID set, or ``None`` when not introspectable.

        ``Pool`` replaces dead workers in place, so a changed PID set is a
        reliable death signal (``maxtasksperchild`` is never used here).
        """
        processes = getattr(self._pool, "_pool", None)
        if processes is None:
            return None
        try:
            return frozenset(p.pid for p in processes if p.pid is not None)
        except Exception:
            return None

    def _publish(self, arrays) -> SharedGraphArrays:
        """The current snapshot of ``arrays``, re-published on revision change."""
        key = id(arrays)
        entry = self._published.get(key)
        if entry is not None:
            _source, shared = entry
            if not shared.closed and shared.revision == arrays.revision:
                return shared
            self._published.pop(key, None)
            shared.close()
        shared = SharedGraphArrays.publish(arrays)
        self._published[key] = (arrays, shared)
        while len(self._published) > _PUBLISH_CACHE_MAX:
            stale_key = next(iter(self._published))
            _source, stale = self._published.pop(stale_key)
            stale.close()
        return shared

    def _respawn(self, report: MapReport) -> None:
        """Terminate the (dead or wedged) pool and re-publish every snapshot.

        The fresh pool starts from nothing: published segments are dropped
        so the next :meth:`_publish` lays out new ones (their names were
        shipped to workers that may have died mid-attach), and the spawned
        workers rebuild their attachment caches lazily as usual.
        """
        report.respawns += 1
        if self._pool is not None:
            pool = self._pool
            self._pool = None
            pool.terminate()
            pool.join()
        for _source, shared in self._published.values():
            shared.close()
        self._published = {}

    # ------------------------------------------------------------------
    def run(
        self, task_name: str, payloads: Sequence[object], arrays=None
    ) -> List[object]:
        """Run one registered task over ``payloads``; returns results in order.

        ``arrays`` (optional) is the :class:`GraphArrays` the task operates
        on: the serial engine hands it to the task directly, the process
        engine ships its shared-memory snapshot's handle instead.  The
        run's :class:`MapReport` is recorded on :attr:`last_report`
        (:meth:`run_with_report` returns it alongside the results).
        """
        return self.run_with_report(task_name, payloads, arrays)[0]

    def run_with_report(
        self, task_name: str, payloads: Sequence[object], arrays=None
    ) -> Tuple[List[object], MapReport]:
        """:meth:`run`, returning ``(results, report)``.

        The results are bit-identical to a serial run no matter which
        recovery actions the report records — tasks are pure and their
        random streams counter-based, so re-execution is idempotent.
        """
        if self._closed:
            raise ValueError("executor is closed")
        payloads = list(payloads)
        report = MapReport(
            task=task_name,
            engine=self._engine,
            tasks=len(payloads),
            fallback_reason=self.fallback_reason,
        )
        self.last_report = report
        if not payloads:
            return [], report
        from repro.parallel import shard

        task = shard.TASKS[task_name]  # unknown task: fail before forking work
        if self._engine == "serial":
            results = [task(arrays, payload) for payload in payloads]
            report.attempts = len(payloads)
            return results, report
        return self._run_process(task, task_name, payloads, arrays, report), report

    # ------------------------------------------------------------------
    def _harvest(
        self, async_result, timeout: Optional[float], baseline: Optional[frozenset]
    ):
        """Collect one task result: ``(status, value)``.

        ``status`` is ``"ok"`` (value holds the result), ``"error"``
        (value holds the raised exception), ``"timeout"`` (deadline
        expired) or ``"lost"`` (a worker died and the result never
        arrived).  Polling keeps dead workers detectable even with no
        deadline configured — the PID set of a pool that repopulated a
        crashed worker differs from ``baseline``, and a result that stays
        pending for :data:`_LOST_GRACE_POLLS` polls after that is declared
        lost.  ``baseline`` is the PID set taken before the round's tasks
        were submitted: a baseline taken when this harvest starts would
        already hold the replacement of a worker that died while an
        earlier task was harvested, and would never see the change.
        """
        import multiprocessing

        deadline = None if timeout is None else time.monotonic() + timeout
        deaths_seen = 0
        while True:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                return "timeout", None
            wait = (
                _POLL_INTERVAL
                if remaining is None
                else min(_POLL_INTERVAL, max(remaining, 0.001))
            )
            try:
                return "ok", async_result.get(wait)
            except multiprocessing.TimeoutError:
                pass
            except Exception as exc:
                return "error", exc
            pids = self._worker_pids()
            if pids is not None and baseline is not None and pids != baseline:
                deaths_seen += 1
                if deaths_seen >= _LOST_GRACE_POLLS:
                    return "lost", None

    def _run_process(
        self, task, task_name: str, payloads: List[object], arrays, report: MapReport
    ) -> List[object]:
        """The resilient submission loop of the process engine."""
        timeout = task_timeout()
        max_retries = task_retries()
        backoff = retry_backoff()

        count = len(payloads)
        results: List[object] = [None] * count
        finished = [False] * count
        error_attempts = [0] * count
        pending = list(range(count))
        degraded: List[int] = []
        respawns_left = _MAX_RESPAWNS

        while pending:
            pool = self._ensure_pool()
            handle = self._publish(arrays).handle if arrays is not None else None
            baseline = self._worker_pids()
            batch = []
            submit_error: Optional[BaseException] = None
            for index in pending:
                try:
                    batch.append(
                        (
                            index,
                            pool.apply_async(
                                _invoke, ((task_name, handle, payloads[index]),)
                            ),
                        )
                    )
                except Exception as exc:  # dead pool surfaces at submission
                    submit_error = exc
                    break
            if submit_error is not None:
                if respawns_left > 0:
                    respawns_left -= 1
                    self._respawn(report)
                    continue
                report.fallback_reason = (
                    "pool submission failed after respawn: %s" % submit_error
                )
                degraded.extend(index for index in pending if not finished[index])
                break

            retry_next: List[int] = []
            respawn_needed = False
            for index, async_result in batch:
                if respawn_needed:
                    # The pool is about to be torn down: harvest only what
                    # already finished, requeue the rest for resubmission.
                    if not async_result.ready():
                        retry_next.append(index)
                        continue
                status, value = self._harvest(async_result, timeout, baseline)
                report.attempts += 1
                if status == "ok":
                    results[index] = value
                    finished[index] = True
                elif status in ("timeout", "lost"):
                    report.timeouts += 1
                    respawn_needed = True
                    retry_next.append(index)
                else:  # the task raised
                    report.failures += 1
                    error_attempts[index] += 1
                    if error_attempts[index] <= max_retries:
                        report.retries += 1
                        time.sleep(backoff * (2 ** (error_attempts[index] - 1)))
                        retry_next.append(index)
                    else:
                        if report.fallback_reason is None:
                            report.fallback_reason = (
                                "task %r payload %d failed %d times (last: %s)"
                                % (task_name, index, error_attempts[index], value)
                            )
                        degraded.append(index)

            if respawn_needed:
                if respawns_left > 0:
                    respawns_left -= 1
                    self._respawn(report)
                else:
                    if report.fallback_reason is None:
                        report.fallback_reason = (
                            "task %r timed out or lost its worker after the "
                            "respawn budget was spent" % task_name
                        )
                    degraded.extend(retry_next)
                    retry_next = []
            pending = retry_next

        # Graceful degradation: the survivors run on the in-process serial
        # engine with the caller's live arrays — bit-identical because the
        # tasks are pure; a genuine task bug still raises here, visibly.
        for index in degraded:
            if finished[index]:
                continue
            results[index] = task(arrays, payloads[index])
            finished[index] = True
            report.degraded += 1
        return results

    # ------------------------------------------------------------------
    def close(self, timeout: Optional[float] = None) -> None:
        """Shut the pool down and release every published snapshot (idempotent).

        With ``timeout`` (seconds) the shutdown is bounded: workers get
        that long to exit after ``Pool.close()``; any that remain — e.g. a
        worker wedged in a hung task — are ``terminate()``d so close
        returns instead of blocking forever.  ``timeout=None`` preserves
        the patient join (interpreter-exit paths pass a bound).
        """
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            pool = self._pool
            self._pool = None
            pool.close()
            if timeout is None:
                pool.join()
            else:
                deadline = time.monotonic() + max(timeout, 0.0)
                processes = list(getattr(pool, "_pool", None) or [])
                for process in processes:
                    process.join(max(deadline - time.monotonic(), 0.0))
                if not processes or any(p.is_alive() for p in processes):
                    # Workers unknown or still alive past the deadline:
                    # escalate.  terminate() after close() is legal and
                    # makes the final join return promptly.
                    pool.terminate()
                pool.join()
        for _source, shared in self._published.values():
            shared.close()
        self._published = {}

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return "ShardedExecutor(workers=%d, engine=%r%s)" % (
            self._workers,
            self._engine,
            ", closed" if self._closed else "",
        )


# ----------------------------------------------------------------------
# Process-wide shared executors
# ----------------------------------------------------------------------
_SHARED: Dict[int, ShardedExecutor] = {}


def shared_executor(workers: Optional[int] = None) -> ShardedExecutor:
    """The process-wide persistent executor for the resolved worker count.

    Spawning a pool costs whole seconds (workers re-import numpy and the
    package); sharing one executor per worker count across analyses
    amortises that to a one-time cost.  Shared executors are closed
    automatically at interpreter exit.
    """
    count = resolve_workers(workers)
    executor = _SHARED.get(count)
    if executor is None or executor.closed:
        executor = ShardedExecutor(workers=count)
        _SHARED[count] = executor
    return executor


def maybe_executor(
    workers: Optional[int] = None, executor: Optional[ShardedExecutor] = None
) -> Optional[ShardedExecutor]:
    """Resolve a consumer API's optional sharding arguments.

    Returns ``executor`` unchanged when given; otherwise ``None`` when no
    worker count was requested anywhere (``workers`` is ``None`` and
    ``REPRO_WORKERS`` is unset) — the caller runs its plain serial path —
    else the shared persistent executor for the resolved count.  Inside a
    pool worker (a daemonic process, which may not spawn children) this
    always resolves to ``None``, so a globally exported ``REPRO_WORKERS``
    cannot trigger nested pools: sharded tasks run their inner analyses
    serially.
    """
    if executor is not None:
        return executor
    if workers is None and WORKERS_ENV not in os.environ:
        return None
    import multiprocessing

    if multiprocessing.current_process().daemon:
        return None
    return shared_executor(workers)


@atexit.register
def _close_shared_executors() -> None:  # pragma: no cover - exit hook
    shutdown_errors = []
    for executor in list(_SHARED.values()):
        try:
            executor.close(timeout=_ATEXIT_CLOSE_TIMEOUT)
        except (OSError, RuntimeError, ValueError) as exc:
            shutdown_errors.append(exc)
    _SHARED.clear()
    if shutdown_errors:
        warnings.warn(
            "failed to close %d shared executor(s) at interpreter exit "
            "(first error: %s)" % (len(shutdown_errors), shutdown_errors[0]),
            RuntimeWarning,
            stacklevel=2,
        )
