"""Bit-identical parity of sharded analyses against their serial paths.

The sampling streams are counter-based per :data:`MC_SAMPLE_BLOCK` block
and moment accumulation folds per-block partial sums in ascending block
order on every engine, so sharding is *exactly* invariant: the property
tests below assert ``np.array_equal`` (not a tolerance) across worker
counts {1, 2, 4}, every chunk split and every input-group size of the
io reference on the three acceptance circuits (c17, the 4x4 multiplier,
c432).  The chunk budget sets both sizes, so the tests force them by
monkeypatching ``MC_CHUNK_BUDGET_FLOATS`` (the ``mc_chunk`` and
``io_group`` fixtures); chunk and group pairs no budget reaches run
through the private ``_io_block_moments``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.montecarlo.flat import (
    MC_SAMPLE_BLOCK,
    _io_block_moments,
    simulate_graph_delay,
    simulate_io_delays,
)
from repro.parallel.shard import partition_samples
from repro.timing.arrays import GraphArrays
from repro.timing.sta import corner_sta, corner_sweep

DELAY_SAMPLES = 600  # spans five 128-sample blocks
IO_SAMPLES = 384  # three blocks, still partitionable four ways


# ----------------------------------------------------------------------
# Partitioner properties
# ----------------------------------------------------------------------
@pytest.mark.parametrize("num_samples", [1, 127, 128, 600, 1000])
@pytest.mark.parametrize("parts", [1, 2, 4, 7])
def test_partition_samples_covers_exactly(num_samples, parts):
    ranges = partition_samples(num_samples, parts, MC_SAMPLE_BLOCK)
    assert ranges, "at least one shard"
    assert len(ranges) <= parts
    assert ranges[0][0] == 0
    assert ranges[-1][1] == num_samples
    for (start, stop), (next_start, _unused) in zip(ranges, ranges[1:]):
        assert stop == next_start
    for start, stop in ranges:
        assert start < stop
        assert start % MC_SAMPLE_BLOCK == 0


# ----------------------------------------------------------------------
# Monte Carlo delay samples
# ----------------------------------------------------------------------
def test_delay_samples_invariant_across_workers(
    parity_module, process_executor, four_worker_executor
):
    graph, _variation = parity_module
    serial = simulate_graph_delay(graph, DELAY_SAMPLES, seed=3)
    one = simulate_graph_delay(graph, DELAY_SAMPLES, seed=3, workers=1)
    two = simulate_graph_delay(
        graph, DELAY_SAMPLES, seed=3, executor=process_executor
    )
    four = simulate_graph_delay(
        graph, DELAY_SAMPLES, seed=3, executor=four_worker_executor
    )
    assert np.array_equal(serial.samples, one.samples)
    assert np.array_equal(serial.samples, two.samples)
    assert np.array_equal(serial.samples, four.samples)


def test_delay_samples_invariant_across_chunk_splits(parity_module, mc_chunk):
    graph, _variation = parity_module
    auto = simulate_graph_delay(graph, DELAY_SAMPLES, seed=5)
    for chunk in (MC_SAMPLE_BLOCK, 3 * MC_SAMPLE_BLOCK, 1024):
        mc_chunk(graph, chunk)
        split = simulate_graph_delay(graph, DELAY_SAMPLES, seed=5)
        assert np.array_equal(auto.samples, split.samples)


# ----------------------------------------------------------------------
# Monte Carlo input/output statistics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("group", ["one", "ragged", "whole"])
def test_io_stats_invariant_across_workers(
    parity_module, process_executor, four_worker_executor, io_group, group
):
    # The caller sizes the input groups and ships the size with every
    # shard, so workers spawned under another budget still follow it.
    graph, _variation = parity_module
    io_group(graph, "whole", IO_SAMPLES)
    serial = simulate_io_delays(graph, IO_SAMPLES, seed=9)
    io_group(graph, group, IO_SAMPLES)
    for result in (
        simulate_io_delays(graph, IO_SAMPLES, seed=9),
        simulate_io_delays(graph, IO_SAMPLES, seed=9, workers=1),
        simulate_io_delays(graph, IO_SAMPLES, seed=9, executor=process_executor),
        simulate_io_delays(
            graph, IO_SAMPLES, seed=9, executor=four_worker_executor
        ),
    ):
        assert np.array_equal(serial.valid, result.valid)
        assert np.array_equal(serial.means, result.means, equal_nan=True)
        assert np.array_equal(serial.stds, result.stds, equal_nan=True)


@pytest.mark.parametrize("group", ["one", "ragged", "whole"])
def test_io_stats_invariant_across_chunk_splits(parity_module, io_group, group):
    graph, _variation = parity_module
    io_group(graph, "whole", IO_SAMPLES)
    auto = simulate_io_delays(graph, IO_SAMPLES, seed=2)
    # The budget reaches multi-block chunks over the whole input axis only.
    for kind, chunk in [(group, MC_SAMPLE_BLOCK), ("whole", 2 * MC_SAMPLE_BLOCK),
                        ("whole", IO_SAMPLES)]:
        io_group(graph, kind, IO_SAMPLES, chunk=chunk)
        split = simulate_io_delays(graph, IO_SAMPLES, seed=2)
        assert np.array_equal(auto.valid, split.valid)
        assert np.array_equal(auto.means, split.means, equal_nan=True)
        assert np.array_equal(auto.stds, split.stds, equal_nan=True)
    # Every chunk of a smaller group yields the same per-block partials.
    size = io_group(graph, group, IO_SAMPLES)
    arrays = GraphArrays.of(graph)
    one_block = _io_block_moments(
        arrays, 2, IO_SAMPLES, 0, IO_SAMPLES, MC_SAMPLE_BLOCK, size
    )
    for chunk in (2 * MC_SAMPLE_BLOCK, IO_SAMPLES):
        split = _io_block_moments(arrays, 2, IO_SAMPLES, 0, IO_SAMPLES, chunk, size)
        assert np.array_equal(one_block[0], split[0])
        assert np.array_equal(one_block[1], split[1])


# ----------------------------------------------------------------------
# Corner STA
# ----------------------------------------------------------------------
def test_sharded_corner_sweep_matches_corner_sta(parity_module, process_executor):
    graph, _variation = parity_module
    report = corner_sta(graph, sigma_corner=3.0)
    sharded = corner_sweep([0.0, 3.0, -3.0], graph=graph, executor=process_executor)
    assert sharded.tolist() == [report.nominal, report.worst, report.best]


def test_corner_sweep_invariant_across_engines(
    parity_module, process_executor, four_worker_executor
):
    graph, _variation = parity_module
    offsets = np.linspace(-3.0, 3.0, 7)
    serial = corner_sweep(offsets, graph=graph)
    assert np.array_equal(serial, corner_sweep(offsets, graph=graph, workers=1))
    assert np.array_equal(
        serial, corner_sweep(offsets, graph=graph, executor=process_executor)
    )
    assert np.array_equal(
        serial, corner_sweep(offsets, graph=graph, executor=four_worker_executor)
    )


# ----------------------------------------------------------------------
# Graceful serial fallback through the consumer APIs
# ----------------------------------------------------------------------
def test_workers_one_is_the_plain_serial_path(parity_module):
    """``workers=1`` degrades to the serial engine with identical results."""
    graph, _variation = parity_module
    plain = simulate_io_delays(graph, IO_SAMPLES, seed=4)
    fallback = simulate_io_delays(graph, IO_SAMPLES, seed=4, workers=1)
    assert np.array_equal(plain.means, fallback.means, equal_nan=True)
    assert np.array_equal(plain.stds, fallback.stds, equal_nan=True)
