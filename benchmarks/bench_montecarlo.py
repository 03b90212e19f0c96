"""Benchmarks of the levelized Monte Carlo kernels and the MC session.

Measures the two headline guarantees of the Monte Carlo refactor on the
largest ISCAS85 surrogate and records them in ``BENCH_montecarlo.json``:

* **cold levelized vs object-level on c7552** — the Table-I accuracy
  reference (:func:`simulate_io_delays`) computes every input's
  per-sample longest paths.  The levelized kernel folds the
  propagations of a group of inputs in one ``(V, g, chunk)`` pass over
  the shared sampled delay matrix; the bench-local object-level
  reference (:func:`_object_io_delays`) runs one per-vertex Python
  propagation (``_longest_paths_object``) per input per chunk and reduces
  the same per-block moments.  The two must produce bit-identical
  statistics for the same seed, and the levelized pass must be at least
  5x faster (``REPRO_MC_SPEEDUP_MIN`` overrides the threshold; ~25x
  locally).

* **warm session revalidation after a single-edge retime** — a
  :class:`~repro.montecarlo.MonteCarloSession` resamples only the retimed
  matrix row and repropagates only its structural fan-out cone; the cold
  baseline redraws and repropagates everything from a fresh session.
  Warm revalidation must match the cold run to 1e-9 and be at least 3x
  faster (``REPRO_MC_WARM_SPEEDUP_MIN``; ~8-10x locally).

Like the other benchmarks this file is run explicitly
(``pytest benchmarks/bench_montecarlo.py``).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from conftest import record_bench
from repro.liberty.library import standard_library
from repro.montecarlo.flat import (
    MC_SAMPLE_BLOCK,
    MonteCarloSession,
    _io_plan,
    _longest_paths_object,
    _reachable_from,
    _sample_delay_range,
    simulate_io_delays,
)
from repro.netlist.iscas85 import iscas85_surrogate
from repro.placement.placer import place_netlist
from repro.timing.arrays import GraphArrays
from repro.timing.builder import build_timing_graph, default_variation_for

PARITY = 1e-9
IO_SAMPLES = 24
SESSION_SAMPLES = 2000


def _record(key: str, payload: dict) -> None:
    """Merge one benchmark's headline numbers into ``BENCH_montecarlo.json``."""
    record_bench("BENCH_montecarlo.json", key, payload)


@pytest.fixture(scope="module")
def c7552_graph():
    netlist = iscas85_surrogate("c7552")
    library = standard_library()
    placement = place_netlist(netlist, library)
    variation = default_variation_for(netlist, placement)
    return build_timing_graph(netlist, library, placement, variation)


def _object_io_delays(graph, num_samples, seed):
    """``(valid, means, stds)`` of the io delays, one input at a time.

    The object-level counterpart of :func:`simulate_io_delays`: the same
    chunks of the same sampled delays and the same per-block moment
    reduction, but one per-vertex ``_longest_paths_object`` propagation
    per input per chunk instead of the levelized multi-source pass.
    """
    arrays = GraphArrays.from_graph(graph)
    input_rows, output_rows = arrays.input_rows, arrays.output_rows
    valid = _reachable_from(arrays, input_rows)[output_rows].T
    chunk_size, _group_size = _io_plan(arrays, num_samples)
    partials = []  # (sums, square_sums) per sample block, ascending
    for start in range(0, num_samples, chunk_size):
        chunk = min(chunk_size, num_samples - start)
        delays = _sample_delay_range(arrays, seed, num_samples, start, start + chunk)
        outputs = np.stack([
            _longest_paths_object(arrays, delays, input_rows[k : k + 1])[output_rows]
            for k in range(input_rows.shape[0])
        ])  # (I, O, chunk)
        finite = np.where(np.isfinite(outputs), outputs, 0.0)
        for low in range(0, chunk, MC_SAMPLE_BLOCK):
            block = finite[:, :, low : low + MC_SAMPLE_BLOCK]
            partials.append((block.sum(axis=2), (block * block).sum(axis=2)))
    sums = np.zeros(valid.shape)
    square_sums = np.zeros(valid.shape)
    for block_sums, block_squares in partials:
        sums += block_sums
        square_sums += block_squares
    means = sums / float(num_samples)
    variances = np.maximum(square_sums / float(num_samples) - means * means, 0.0)
    stds = np.sqrt(variances) * np.sqrt(num_samples / max(num_samples - 1, 1))
    return valid, np.where(valid, means, np.nan), np.where(valid, stds, np.nan)


def _median_seconds(fn, repeats):
    seconds = []
    for _unused in range(repeats):
        start = time.perf_counter()
        fn()
        seconds.append(time.perf_counter() - start)
    seconds.sort()
    return seconds[len(seconds) // 2]


def test_levelized_io_speedup_on_c7552(benchmark, c7552_graph):
    """Acceptance check: >= 5x levelized-vs-object, bit-identical samples."""
    threshold = float(os.environ.get("REPRO_MC_SPEEDUP_MIN", "5.0"))
    graph = c7552_graph

    levelized = simulate_io_delays(graph, IO_SAMPLES, seed=7)
    levelized_seconds = _median_seconds(
        lambda: simulate_io_delays(graph, IO_SAMPLES, seed=7), 3
    )
    valid, means, stds = _object_io_delays(graph, IO_SAMPLES, 7)
    reference_seconds = _median_seconds(
        lambda: _object_io_delays(graph, IO_SAMPLES, 7), 2
    )
    speedup = reference_seconds / levelized_seconds

    # Both fold the same exact candidates: bitwise agreement.
    assert np.array_equal(levelized.valid, valid)
    assert np.array_equal(levelized.means, means, equal_nan=True)
    assert np.array_equal(levelized.stds, stds, equal_nan=True)

    benchmark.extra_info["levelized_s"] = round(levelized_seconds, 3)
    benchmark.extra_info["object_s"] = round(reference_seconds, 3)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    benchmark.extra_info["inputs"] = len(graph.inputs)
    benchmark.extra_info["edges"] = graph.num_edges
    _record(
        "levelized_io_vs_object_c7552",
        {
            "samples": IO_SAMPLES,
            "inputs": len(graph.inputs),
            "edges": graph.num_edges,
            "levelized_seconds": round(levelized_seconds, 4),
            "object_seconds": round(reference_seconds, 4),
            "speedup": round(speedup, 1),
            "threshold": threshold,
        },
    )

    benchmark(lambda: simulate_io_delays(graph, IO_SAMPLES, seed=7))

    assert speedup >= threshold, (
        "levelized io-delay Monte Carlo is only %.1fx faster than the "
        "object-level reference on c7552 (levelized %.2f s, object %.2f s, "
        "threshold %.1fx)"
        % (speedup, levelized_seconds, reference_seconds, threshold)
    )


def test_session_warm_revalidation_speedup_on_c7552(benchmark, c7552_graph):
    """Acceptance check: >= 3x warm-vs-cold session revalidation."""
    threshold = float(os.environ.get("REPRO_MC_WARM_SPEEDUP_MIN", "3.0"))
    graph = c7552_graph.copy()

    session = MonteCarloSession(graph, num_samples=SESSION_SAMPLES, seed=5)
    session.revalidate()

    # One warm revalidation per round: retime a different mid-graph edge,
    # then re-query the delay distribution through the live session.
    edges = graph.edges
    probes = [edges[(len(edges) // 7) * k + 3] for k in range(1, 6)]
    warm_seconds = []
    for round_index, edge in enumerate(probes):
        graph.replace_edge_delay(edge, edge.delay.scale(1.0 + 0.01 * (round_index + 1)))
        start = time.perf_counter()
        warm = session.revalidate()
        warm_seconds.append(time.perf_counter() - start)
        assert session.last_refresh.kind == "rows"
    warm_seconds.sort()
    warm_median = warm_seconds[len(warm_seconds) // 2]

    def cold_run():
        return MonteCarloSession(
            graph.copy(), num_samples=SESSION_SAMPLES, seed=5
        ).revalidate()

    cold = cold_run()
    cold_median = _median_seconds(cold_run, 3)
    speedup = cold_median / warm_median

    # Parity: the warm session equals a full cold resample of the edited
    # graph (the counter-based per-edge streams make this exact).
    worst = float(np.abs(warm.samples - cold.samples).max())
    assert worst <= PARITY, "warm revalidation deviates by %.3e" % worst

    benchmark.extra_info["warm_median_ms"] = round(warm_median * 1e3, 1)
    benchmark.extra_info["cold_median_ms"] = round(cold_median * 1e3, 1)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    _record(
        "session_warm_vs_cold_c7552",
        {
            "samples": SESSION_SAMPLES,
            "edges": graph.num_edges,
            "warm_median_seconds": round(warm_median, 4),
            "cold_median_seconds": round(cold_median, 4),
            "speedup": round(speedup, 1),
            "threshold": threshold,
        },
    )

    def one_warm_round():
        edge = graph.edges[len(graph.edges) // 2]
        graph.replace_edge_delay(edge, edge.delay.scale(1.01))
        return session.revalidate()

    benchmark(one_warm_round)

    assert speedup >= threshold, (
        "warm Monte Carlo revalidation is only %.1fx faster than a cold "
        "session on c7552 (warm median %.1f ms, cold %.1f ms, threshold "
        "%.1fx)"
        % (speedup, warm_median * 1e3, cold_median * 1e3, threshold)
    )
