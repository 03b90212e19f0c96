"""The flattened Monte Carlo's chunks on threads give the serial loop's bits.

``simulate_graph_delay`` hands its block-aligned sample chunks to the
shared thread loop of :mod:`repro.core.chunk_threads`.  The tests set a
thread count through the ``force_threads`` fixture; its ``host`` cases
lower only the chunks-per-thread floor, so the host's own CPUs drive the
threads when BLAS is pinned to one thread (as the CI step that reruns
these tests pins it) and one thread otherwise.
"""

import multiprocessing
import threading
import weakref

import numpy as np
import pytest

from repro.core import chunk_threads
from repro.montecarlo import flat
from repro.montecarlo.flat import simulate_graph_delay
from repro.timing.arrays import GraphArrays

# Nine whole sample blocks and a partial one: ten one-block chunks.
SAMPLES = 9 * flat.MC_SAMPLE_BLOCK + 50
CHUNKS = 10


def _thread_counts(monkeypatch):
    """The thread count of every chunk loop run from now on."""
    counts = []
    run_chunks = chunk_threads.run_chunks

    def counting(threads, starts, run_chunk):
        counts.append(threads)
        run_chunks(threads, starts, run_chunk)

    monkeypatch.setattr(chunk_threads, "run_chunks", counting)
    return counts


@pytest.mark.parametrize("threads", [1, 2, 4, pytest.param(None, id="host")])
def test_threads_match_the_serial_loop(
    parity_module, mc_chunk, monkeypatch, force_threads, threads
):
    graph = parity_module[0]
    mc_chunk(graph, flat.MC_SAMPLE_BLOCK)
    counts = _thread_counts(monkeypatch)
    serial = simulate_graph_delay(graph, SAMPLES, seed=11)
    force_threads(threads)
    threaded = simulate_graph_delay(graph, SAMPLES, seed=11)
    expected = min(threads or chunk_threads._usable_cpus(), CHUNKS)
    assert counts == [1, expected]
    assert np.array_equal(serial.samples, threaded.samples)


def test_the_caller_builds_the_fold_plan_before_the_threads(
    c432_graph, mc_chunk, monkeypatch, force_threads
):
    graph = c432_graph.copy()
    arrays = GraphArrays.of(graph)  # held, so the run reads this view
    assert getattr(arrays, "_mc_forward_schedule", None) is None
    mc_chunk(graph, flat.MC_SAMPLE_BLOCK)
    force_threads(2)
    run_chunks = chunk_threads.run_chunks
    built = []

    def checking(threads, starts, run_chunk):
        levels = arrays._forward_levels
        schedule = getattr(arrays, "_mc_forward_schedule", None)
        built.append(
            levels is not None and schedule is not None and schedule[0] is levels
        )
        run_chunks(threads, starts, run_chunk)

    monkeypatch.setattr(chunk_threads, "run_chunks", checking)
    simulate_graph_delay(graph, SAMPLES, seed=11)
    assert built == [True]


def test_a_chunk_frees_its_sampled_block_before_the_fold(
    c432_graph, mc_chunk, monkeypatch
):
    graph = c432_graph
    mc_chunk(graph, flat.MC_SAMPLE_BLOCK)
    expected = simulate_graph_delay(graph, SAMPLES, seed=11)
    sample_delay_range = flat._sample_delay_range
    fold_level_rounds = flat._fold_level_rounds
    sampled = []
    alive_in_fold = []

    def tracked(*args):
        block = sample_delay_range(*args)
        sampled.append(weakref.ref(block))
        return block

    def fold(*args, **kwargs):
        alive_in_fold.append(sampled[-1]() is not None)
        return fold_level_rounds(*args, **kwargs)

    monkeypatch.setattr(flat, "_sample_delay_range", tracked)
    monkeypatch.setattr(flat, "_fold_level_rounds", fold)
    result = simulate_graph_delay(graph, SAMPLES, seed=11)
    assert len(sampled) == CHUNKS
    assert alive_in_fold and not any(alive_in_fold)
    assert np.array_equal(expected.samples, result.samples)


def test_a_failing_chunk_raises_to_the_caller(
    c432_graph, mc_chunk, monkeypatch, force_threads
):
    graph = c432_graph
    mc_chunk(graph, flat.MC_SAMPLE_BLOCK)
    force_threads(2)
    sample_delay_range = flat._sample_delay_range
    failing_start = 3 * flat.MC_SAMPLE_BLOCK
    raised_in = []

    def failing(arrays, seed, num_samples, start, stop):
        if start == failing_start:
            raised_in.append(threading.get_ident())
            raise FloatingPointError("chunk at sample %d" % start)
        return sample_delay_range(arrays, seed, num_samples, start, stop)

    monkeypatch.setattr(flat, "_sample_delay_range", failing)
    outcome = {}

    def run():
        try:
            outcome["result"] = simulate_graph_delay(graph, SAMPLES, seed=11)
        except FloatingPointError as exc:
            outcome["error"] = exc

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=60.0)
    assert not caller.is_alive(), "the chunk loop hung on a failed chunk"
    assert "result" not in outcome
    assert str(outcome["error"]) == "chunk at sample %d" % failing_start
    assert raised_in and raised_in[0] != caller.ident


@pytest.mark.parametrize(
    "blas_env, daemon",
    [
        ({"OPENBLAS_NUM_THREADS": "1"}, True),
        ({}, False),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
    ],
    ids=["daemonic", "blas-unset", "blas-threaded"],
)
def test_one_thread_in_a_daemon_or_over_a_threaded_blas(
    c432_graph, mc_chunk, monkeypatch, blas_env, daemon
):
    for name in chunk_threads._BLAS_THREADS_ENV:
        monkeypatch.delenv(name, raising=False)
    for name, value in blas_env.items():
        monkeypatch.setenv(name, value)
    # The flag a pool worker carries; maybe_executor reads the same one.
    monkeypatch.setattr(multiprocessing.current_process(), "daemon", daemon)
    monkeypatch.setattr(chunk_threads, "_CHUNKS_PER_THREAD", 1)
    graph = c432_graph
    mc_chunk(graph, flat.MC_SAMPLE_BLOCK)
    counts = _thread_counts(monkeypatch)
    sample_delay_range = flat._sample_delay_range
    chunk_idents = set()

    def tracked(*args):
        chunk_idents.add(threading.get_ident())
        return sample_delay_range(*args)

    monkeypatch.setattr(flat, "_sample_delay_range", tracked)
    simulate_graph_delay(graph, SAMPLES, seed=11)
    assert counts == [1]
    assert chunk_idents == {threading.get_ident()}
