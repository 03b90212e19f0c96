"""Benchmarks of the batched edge-criticality kernel.

Measures what the edge-chunked criticality kernels actually buy over the
one-edge-at-a-time scalar reference:

* **cold criticality on c7552** — the maximum criticality of every edge
  of the largest ISCAS85 surrogate, batched vs a per-edge loop over the
  scalar reference :func:`edge_criticality_matrix` on the same all-pairs
  analysis.  The headline assertion of the batched-criticality refactor
  lives here: the batched kernel must be at least 5x faster than the
  reference loop (``REPRO_CRITICALITY_SPEEDUP_MIN`` overrides the
  threshold; the CI smoke job relaxes it for noisy shared runners), and
  the two must agree to 1e-9.

Like the other benchmarks this file is run explicitly
(``pytest benchmarks/bench_criticality.py``).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.liberty.library import standard_library
from repro.model.criticality import (
    CriticalityResult,
    compute_edge_criticalities,
    edge_criticality_matrix,
)
from repro.netlist.iscas85 import iscas85_surrogate
from repro.placement.placer import place_netlist
from repro.timing.allpairs import AllPairsTiming
from repro.timing.builder import build_timing_graph, default_variation_for

PARITY = 1e-9


def _build_module(circuit):
    netlist = iscas85_surrogate(circuit)
    library = standard_library()
    placement = place_netlist(netlist, library)
    variation = default_variation_for(netlist, placement)
    return build_timing_graph(netlist, library, placement, variation)


@pytest.fixture(scope="module")
def c7552_analysis():
    graph = _build_module("c7552")
    return graph, AllPairsTiming.analyze(graph)


def _scalar_reference(graph, analysis):
    """Per-edge maxima and argmax pairs of the scalar reference matrices."""
    values, pairs = {}, {}
    for edge in graph.edges:
        matrix = edge_criticality_matrix(analysis, edge)
        i, j = np.unravel_index(int(np.argmax(matrix)), matrix.shape)
        values[edge.edge_id] = float(matrix[i, j])
        pairs[edge.edge_id] = (int(i), int(j))
    return CriticalityResult(values, pairs)


def _median_seconds(fn, repeats):
    seconds = []
    for _unused in range(repeats):
        start = time.perf_counter()
        fn()
        seconds.append(time.perf_counter() - start)
    seconds.sort()
    return seconds[len(seconds) // 2]


def _assert_parity(reference, candidate):
    assert reference.max_criticality.keys() == candidate.max_criticality.keys()
    worst = max(
        abs(reference.max_criticality[edge_id] - candidate.max_criticality[edge_id])
        for edge_id in reference.max_criticality
    )
    assert worst <= PARITY, "results disagree by %.3e" % worst


def test_batched_criticality_speedup_on_c7552(benchmark, c7552_analysis):
    """Acceptance check: >= 5x batched-vs-scalar cold criticality."""
    threshold = float(os.environ.get("REPRO_CRITICALITY_SPEEDUP_MIN", "5.0"))
    graph, analysis = c7552_analysis

    scalar = _scalar_reference(graph, analysis)
    # Both sides get the same treatment — a warm-up pass above, then a
    # median of three — so one scheduler hiccup cannot decide the gate.
    scalar_seconds = _median_seconds(
        lambda: _scalar_reference(graph, analysis), 3
    )

    batch = compute_edge_criticalities(graph, analysis)
    batch_seconds = _median_seconds(
        lambda: compute_edge_criticalities(graph, analysis), 3
    )
    speedup = scalar_seconds / batch_seconds
    _assert_parity(scalar, batch)

    benchmark.extra_info["scalar_s"] = round(scalar_seconds, 2)
    benchmark.extra_info["batch_median_s"] = round(batch_seconds, 2)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    benchmark.extra_info["edges"] = graph.num_edges
    benchmark.extra_info["pairs"] = analysis.num_inputs * analysis.num_outputs

    benchmark(lambda: compute_edge_criticalities(graph, analysis))

    assert speedup >= threshold, (
        "batched cold criticality is only %.1fx faster than the scalar "
        "reference on c7552 (batch median %.2f s, scalar %.2f s, "
        "threshold %.1fx)"
        % (speedup, batch_seconds, scalar_seconds, threshold)
    )
