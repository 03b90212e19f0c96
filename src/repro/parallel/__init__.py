"""Zero-copy shared-memory process pool for embarrassingly parallel analyses.

The package shards corner STA, Monte Carlo sample ranges and multi-design
experiment sweeps across worker processes:

* :mod:`repro.parallel.shm` publishes a :class:`~repro.timing.arrays.GraphArrays`
  snapshot into ``multiprocessing.shared_memory`` once and lets every
  worker attach zero-copy;
* :mod:`repro.parallel.pool` is the persistent spawn-safe
  :class:`~repro.parallel.pool.ShardedExecutor`, which runs a process
  pool when more than one worker is requested and shared memory works,
  with graceful serial fallback otherwise — and a **fault-tolerant**
  submission loop: per-task deadlines (``REPRO_TASK_TIMEOUT``), bounded
  deterministic retries, one respawn-and-resubmit cycle for dead pools
  and final serial degradation, all accounted in a
  :class:`~repro.parallel.pool.MapReport`;
* :mod:`repro.parallel.shard` holds the work partitioners and the task
  registry.

All sharded analyses are **deterministic by construction**: Monte Carlo
draws are counter-based per sample block, so any partitioning of the work
reproduces the serial results bit for bit — including runs that needed
recovery (tasks are pure, so re-execution is idempotent).
"""

from repro.parallel.shm import (
    SharedArraysHandle,
    SharedGraphArrays,
    SnapshotArrays,
    shared_memory_available,
)
from repro.parallel.pool import (
    MapReport,
    ShardedExecutor,
    maybe_executor,
    resolve_workers,
    retry_backoff,
    shared_executor,
    task_retries,
    task_timeout,
)
from repro.parallel.shard import TASKS, partition_samples, task

__all__ = [
    "MapReport",
    "SharedArraysHandle",
    "SharedGraphArrays",
    "ShardedExecutor",
    "SnapshotArrays",
    "TASKS",
    "maybe_executor",
    "partition_samples",
    "resolve_workers",
    "retry_backoff",
    "shared_executor",
    "shared_memory_available",
    "task",
    "task_retries",
    "task_timeout",
]
