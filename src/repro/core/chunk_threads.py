"""The one thread loop of the chunked kernels.

Edge criticality (:func:`repro.model.criticality._batched_edge_max`) and
the flattened Monte Carlo (:func:`repro.montecarlo.flat._simulate_delay_range`)
cut their work into chunks that are independent of each other and of the
thread that evaluates them: a criticality chunk keeps the serial loop's
boundaries, and a Monte Carlo chunk is a run of counter-keyed sample
blocks folded with the exact ``+`` and ``max``.  Both kernels therefore
hand the same chunks to :func:`run_chunks`, which spreads them over
:func:`_thread_count` threads, and get the serial loop's bits at any
thread count.  The threads overlap because the chunks' numpy calls release
the interpreter lock.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List

# A run gets one thread per this many chunks, up to the usable CPUs.
# Fewer chunks run on the serial loop: on a 2-CPU host, two threads made
# the 12-chunk criticality refresh of a 16-bit multiplier module slower,
# not faster.
_CHUNKS_PER_THREAD = 32

# The variables numpy's bundled OpenBLAS takes its thread count from,
# in its order of precedence; unset, it runs a thread per CPU.
_BLAS_THREADS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _usable_cpus() -> int:
    """CPUs a chunk loop may keep busy with threads of its own.

    These are the CPUs this process may run on, but only one:

    * inside a pool worker, a daemonic process that runs one shard of a
      parallel map beside its siblings (the test by which
      :func:`repro.parallel.pool.maybe_executor` refuses nested pools);
    * unless BLAS runs each call on one thread, that is unless the first
      set of :data:`_BLAS_THREADS_ENV` reads 1.  A threaded BLAS already
      spreads the contractions over the CPUs, and OpenBLAS serialises
      threaded calls made from several threads at once: two criticality
      threads over a two-thread BLAS ran c7552 about 1.7x slower than the
      serial loop on a 2-CPU host.
    """
    if multiprocessing.current_process().daemon:
        return 1
    blas_threads = next(
        (os.environ[name] for name in _BLAS_THREADS_ENV if name in os.environ),
        None,
    )
    if blas_threads != "1":
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _thread_count(num_chunks: int) -> int:
    """Threads for ``num_chunks`` chunks: one per :data:`_CHUNKS_PER_THREAD`
    chunks, up to the usable CPUs, and at least one."""
    return max(1, min(_usable_cpus(), num_chunks // _CHUNKS_PER_THREAD))


def run_chunks(
    threads: int, starts: Iterable[int], run_chunk: Callable[[int, int], None]
) -> None:
    """Call ``run_chunk(thread, start)`` once for every chunk start.

    ``threads`` threads, numbered ``0 .. threads - 1``, each take the next
    start as they finish a chunk, so a thread on a slow or busy CPU takes
    fewer chunks instead of holding the others up; with one thread the
    caller runs the plain loop.  ``run_chunk`` must write only its own chunk's
    results and only ``thread``'s scratch.  A chunk that raises stops the
    hand-out: the other threads finish the chunk they are in and take no
    other, and the first exception raised is re-raised here.
    """
    pending = iter(starts)
    lock = threading.Lock()
    errors: List[BaseException] = []

    def next_start():
        with lock:
            return next(pending, None)

    def take_chunks(thread: int) -> None:
        nonlocal pending
        try:
            for start in iter(next_start, None):
                run_chunk(thread, start)
        except BaseException as exc:
            with lock:
                errors.append(exc)
                pending = iter(())

    if threads == 1:
        for start in pending:
            run_chunk(0, start)
        return
    with ThreadPoolExecutor(threads) as pool:
        list(pool.map(take_chunks, range(threads)))
    if errors:
        raise errors[0]
