"""The shared thread loop of the chunked kernels (repro.core.chunk_threads).

The kernels' own thread tests (``tests/model/test_criticality_batch.py::
TestThreads`` and ``tests/montecarlo/test_threads.py``) check that any
thread count gives the serial loop's bits; these check how the loop
hands out chunks under contention and how it fails.
"""

import sys
import threading
import time

import pytest

from repro.core.chunk_threads import run_chunks


def test_a_failed_chunk_stops_the_hand_out():
    failed = threading.Event()
    started = []

    def run_chunk(thread, start):
        started.append(start)
        if start == 0:
            failed.set()
            raise FloatingPointError("chunk 0")
        # The chunk in flight on the other thread outlasts the failure.
        assert failed.wait(timeout=30.0)
        time.sleep(0.2)

    with pytest.raises(FloatingPointError, match="chunk 0"):
        run_chunks(2, range(16), run_chunk)
    assert 0 in started and set(started) <= {0, 1}


def test_the_first_failure_is_re_raised():
    first_failed = threading.Event()

    def run_chunk(thread, start):
        if start == 1:
            first_failed.set()
            raise KeyError("first")
        assert first_failed.wait(timeout=30.0)
        time.sleep(0.2)
        raise ValueError("second")

    with pytest.raises(KeyError):
        run_chunks(2, range(2), run_chunk)


def test_every_start_runs_once_under_contention():
    # More threads than CPUs, a switch after almost every bytecode and a
    # generator of starts (which raises if two threads advance it at
    # once): each start must still be handed out exactly once.
    runs = [0] * 40000
    outcome = {}

    def run_chunk(thread, start):
        runs[start] += 1

    def starts():
        for start in range(len(runs)):
            for _ in range(20):  # switch points while the generator runs
                pass
            yield start

    def run():
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_chunks(8, starts(), run_chunk)
            outcome["done"] = True
        finally:
            sys.setswitchinterval(interval)

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=60.0)
    assert not caller.is_alive(), "the chunk loop hung"
    assert outcome.get("done")
    assert runs == [1] * len(runs)
