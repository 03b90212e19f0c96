"""Benchmarks of the batched edge-criticality kernel.

Measures what the edge-chunked criticality kernels actually buy over the
one-edge-at-a-time scalar reference, and that the dense-edit auto-switch
of the incremental updater holds its guarantee:

* **cold criticality on c7552** — the maximum criticality of every edge
  of the largest ISCAS85 surrogate, batched vs a per-edge loop over the
  scalar reference :func:`edge_criticality_matrix` on the same all-pairs
  analysis.  The headline assertion of the batched-criticality refactor
  lives here: the batched kernel must be at least 5x faster than the
  reference loop (``REPRO_CRITICALITY_SPEEDUP_MIN`` overrides the
  threshold; the CI smoke job relaxes it for noisy shared runners), and
  the two must agree to 1e-9.

* **dense mid-graph retime on c432** — a retime in the middle of the
  heavily reconvergent c432 moves the all-pairs tensors almost
  everywhere, the worst case of the exact incremental update.  The
  updater must detect the dense cross and switch to a batched full
  recompute (``engine == "batch"``), and the switched update must be no
  slower than a cold batched recompute of the same graph
  (``REPRO_DENSE_EDIT_SLACK`` bounds the allowed measurement-noise
  ratio).

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
    update_edge_criticalities,
)
from repro.netlist.iscas85 import iscas85_surrogate
from repro.placement.placer import place_netlist
from repro.timing.allpairs import AllPairsSession, AllPairsTiming
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


@pytest.fixture(scope="module")
def c432_graph():
    return _build_module("c432")


def _widest_cone_edges(graph, analysis, count):
    """The ``count`` edges with the widest input x output cone product."""
    arrays = analysis.arrays
    reaching_inputs = analysis.arrival_valid.sum(axis=1)
    reached_outputs = analysis.to_output_valid.sum(axis=1)
    scored = sorted(
        graph.edges,
        key=lambda edge: -(
            int(reaching_inputs[arrays.edge_source[arrays.edge_rows[edge.edge_id]]])
            * int(reached_outputs[arrays.edge_sink[arrays.edge_rows[edge.edge_id]]])
        ),
    )
    return scored[:count]


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


def test_dense_edit_no_slower_than_cold_batch_on_c432(benchmark, c432_graph):
    """A dense mid-graph retime must auto-switch and match cold-batch cost."""
    slack = float(os.environ.get("REPRO_DENSE_EDIT_SLACK", "1.5"))
    graph = c432_graph

    session = AllPairsSession(graph)
    previous = compute_edge_criticalities(graph, session.state)

    # One dense edit per round: retime a different mid-graph edge, refresh
    # the all-pairs session, and time only the criticality update (the
    # stage whose guarantee is under test).  "Mid-graph" is chosen by cone
    # width — edges whose source is reached by many inputs and whose sink
    # reaches many outputs move the pair space almost everywhere when
    # retimed, which is exactly the dense worst case.
    mid_edges = _widest_cone_edges(graph, session.state, 5)
    dense_seconds = []
    switched = []
    for round_index, edge in enumerate(mid_edges):
        graph.replace_edge_delay(edge, edge.delay.scale(1.0 + 0.02 * (round_index + 1)))
        update = session.refresh()
        start = time.perf_counter()
        updated = update_edge_criticalities(
            graph, session.state, previous, update
        )
        dense_seconds.append(time.perf_counter() - start)
        switched.append(updated.engine)
        previous = updated
    dense_seconds.sort()
    dense_median = dense_seconds[len(dense_seconds) // 2]

    # Every mid-graph retime on this reconvergent module should have
    # tripped the dense-edit switch to the batched full recompute.
    assert all(engine == "batch" for engine in switched), switched

    # The switched update is exact: identical to a from-scratch batched
    # recompute of the refreshed analysis.
    reference = compute_edge_criticalities(graph, session.state)
    _assert_parity(reference, previous)

    cold_median = _median_seconds(
        lambda: compute_edge_criticalities(graph, session.state), 5
    )

    benchmark.extra_info["dense_median_ms"] = round(dense_median * 1e3, 2)
    benchmark.extra_info["cold_batch_median_ms"] = round(cold_median * 1e3, 2)
    benchmark.extra_info["edges"] = graph.num_edges

    def one_dense_edit():
        edge = graph.edges[len(graph.edges) // 2]
        graph.replace_edge_delay(edge, edge.delay.scale(1.01))
        update = session.refresh()
        # The continuity contract: each round seeds from the result of the
        # previous one, exactly as ExtractionSession would.
        one_dense_edit.previous = update_edge_criticalities(
            graph, session.state, one_dense_edit.previous, update
        )
        return one_dense_edit.previous

    one_dense_edit.previous = previous
    benchmark(one_dense_edit)

    assert dense_median <= cold_median * slack, (
        "dense-edit criticality update took %.1f ms median vs %.1f ms for "
        "a cold batched recompute (slack %.2fx): the auto-switch failed "
        "its no-slower guarantee"
        % (dense_median * 1e3, cold_median * 1e3, slack)
    )
