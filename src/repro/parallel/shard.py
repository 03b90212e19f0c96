"""Work partitioners and the task registry of the sharded executor.

Three embarrassingly parallel axes of the reproduction are sharded here:

* **corner STA** — one deterministic corner per task over the shared
  graph snapshot (``corner_delay``);
* **Monte Carlo sample ranges** — contiguous, block-aligned sample ranges
  per task (``mc_delay_range`` / ``mc_io_blocks``).  Sampling is
  counter-based per :data:`~repro.montecarlo.flat.MC_SAMPLE_BLOCK`-sample
  block, so a range's draws depend only on ``(seed, block_index)`` and the
  per-worker results concatenate (or moment-accumulate) **bit-identically**
  to the serial engine;
* **multi-design sweeps** — one self-contained experiment unit per task
  (``table1_row`` builds, characterizes and extracts one circuit;
  ``correlation_point`` evaluates one correlation strength of the
  hierarchical ablation).  These ship no shared arrays: each payload
  carries everything the worker needs to rebuild its design.

Task functions take ``(arrays, payload)`` — ``arrays`` is the attached
:class:`~repro.parallel.shm.SnapshotArrays` in worker processes, the
caller's live :class:`~repro.timing.arrays.GraphArrays` under the serial
engine, or ``None`` for the design-sweep tasks — and must return a
picklable value.  They import their engines lazily so this module stays
import-cycle-free (``repro.parallel`` must be importable from anywhere).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

__all__ = ["TASKS", "partition_samples", "task"]

#: Registered task functions, keyed by the name used with
#: :meth:`repro.parallel.pool.ShardedExecutor.run`.
TASKS: Dict[str, Callable] = {}


def task(name: str) -> Callable[[Callable], Callable]:
    """Register a task function under ``name`` (decorator)."""

    def register(function: Callable) -> Callable:
        TASKS[name] = function
        return function

    return register


def partition_samples(
    num_samples: int, parts: int, block: int
) -> List[Tuple[int, int]]:
    """Contiguous, block-aligned sample ranges covering ``[0, num_samples)``.

    The ranges split the sample blocks (the counter-based sampling units)
    as evenly as possible across ``parts``; empty ranges are dropped, so
    fewer ranges than ``parts`` come back when there are fewer blocks than
    workers.  Block alignment is what keeps every block's draws — and the
    per-block moment partials — owned by exactly one range.
    """
    if num_samples <= 0:
        return []
    if parts <= 0:
        raise ValueError("parts must be positive, got %d" % parts)
    num_blocks = -(-num_samples // block)
    ranges: List[Tuple[int, int]] = []
    done = 0
    for part in range(parts):
        span = num_blocks // parts + (1 if part < num_blocks % parts else 0)
        if span == 0:
            continue
        start = done * block
        done += span
        ranges.append((start, min(done * block, num_samples)))
    return ranges


# ----------------------------------------------------------------------
# Corner STA
# ----------------------------------------------------------------------
@task("corner_delay")
def _corner_delay(arrays, payload):
    """Longest path at one sigma corner; payload is the sigma offset."""
    from repro.timing.sta import longest_path_from_arrays

    return longest_path_from_arrays(arrays, float(payload))


# ----------------------------------------------------------------------
# Monte Carlo sample ranges
# ----------------------------------------------------------------------
@task("mc_delay_range")
def _mc_delay_range(arrays, payload):
    """Circuit-delay samples of one block-aligned sample range.

    Payload: ``(seed, num_samples, start, stop, chunk_size)``.
    """
    from repro.montecarlo.flat import _simulate_delay_range

    seed, num_samples, start, stop, chunk_size = payload
    return _simulate_delay_range(
        arrays, seed, num_samples, start, stop, chunk_size
    )


@task("mc_io_blocks")
def _mc_io_blocks(arrays, payload):
    """Per-block IO moment partials of one block-aligned sample range.

    Payload: ``(seed, num_samples, start, stop, chunk_size, group_size)``
    (the caller sizes the input groups, so every worker honours the
    caller's budget); returns the ``(sums_stack, square_sums_stack)`` pair
    of shape ``(blocks, I, O)``.
    """
    from repro.montecarlo.flat import _io_block_moments

    seed, num_samples, start, stop, chunk_size, group_size = payload
    return _io_block_moments(
        arrays, seed, num_samples, start, stop, chunk_size, group_size
    )


# ----------------------------------------------------------------------
# Multi-design sweeps (self-contained payloads, no shared arrays)
# ----------------------------------------------------------------------
@task("table1_row")
def _table1_row_task(_arrays, payload):
    """One Table I row; payload: ``(name, config, library, validate)``."""
    from repro.experiments.table1 import _table1_row

    return _table1_row(payload)


@task("correlation_point")
def _correlation_point_task(_arrays, payload):
    """One ABL-2 sweep point; payload: ``(bits, rho, config, library)``."""
    from repro.experiments.ablation import _correlation_point

    return _correlation_point(payload)


# ----------------------------------------------------------------------
# Introspection
# ----------------------------------------------------------------------
@task("worker_probe")
def _worker_probe(_arrays, payload):
    """Report how the executor machinery resolves *inside* a pool worker.

    Payload: ``{"env": {...}}`` — variables set in the worker before
    probing (spawned workers snapshot the parent environment at pool
    creation, so tests cannot monkeypatch it afterwards; shipping the
    variables in the payload sidesteps that).  Returns the worker's pid,
    its daemon flag and what :func:`repro.parallel.pool.maybe_executor`
    resolved to, proving the nested-pool guard degrades sharded inner
    analyses to the serial path instead of spawning grandchildren.
    """
    import multiprocessing
    import os

    from repro.parallel.pool import maybe_executor

    for key, value in (payload or {}).get("env", {}).items():
        os.environ[key] = value
    try:
        executor = maybe_executor()
        return {
            "pid": os.getpid(),
            "daemon": multiprocessing.current_process().daemon,
            "maybe_executor": None if executor is None else executor.engine,
        }
    finally:
        for key in (payload or {}).get("env", {}):
            os.environ.pop(key, None)
