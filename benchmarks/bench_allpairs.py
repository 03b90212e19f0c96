"""Benchmarks of the incremental all-pairs extraction pipeline.

Measures what the journal-driven :class:`ExtractionSession` actually buys
over the from-scratch pipeline on c7552 (the largest ISCAS85 surrogate):

* **single-retime re-extraction** — an input-stage edge is retimed (the
  classic ECO buffer-resize at a module boundary) and the timing model is
  re-extracted at the paper threshold.  The session repropagates only the
  dirty cone of the all-pairs tensors and then recomputes every edge's
  criticality with the batched kernel; the cold baseline redoes the full
  all-pairs analysis as well.  The warm model must equal a cold
  re-extraction of the edited graph; the speed-up over a cold
  ``extract_timing_model`` is reported in ``extra_info`` (``speedup``),
  not asserted: the criticality recompute dominates both sides.

  One mid-graph retime, which moves the delay matrix almost everywhere on
  this heavily reconvergent surrogate, is reported as well
  (``midgraph_warm_s``).

* **threshold sweep** — after the warm-up, each additional threshold pays
  only the copy-and-merge tail of the pipeline (reported, not asserted).

Like the other benchmarks this file is run explicitly
(``pytest benchmarks/bench_allpairs.py``).
"""

from __future__ import annotations

import random
import time

import pytest

from repro.liberty.library import standard_library
from repro.model.extraction import ExtractionSession, extract_timing_model
from repro.netlist.iscas85 import iscas85_surrogate
from repro.placement.placer import place_netlist
from repro.timing.builder import build_timing_graph, default_variation_for

CIRCUIT = "c7552"
THRESHOLD = 0.05


@pytest.fixture(scope="module")
def c7552_module():
    netlist = iscas85_surrogate(CIRCUIT)
    library = standard_library()
    placement = place_netlist(netlist, library)
    variation = default_variation_for(netlist, placement)
    graph = build_timing_graph(netlist, library, placement, variation)
    return graph, variation


def _input_stage_edges(graph):
    """Edges leaving a primary input (the ECO buffer-resize candidates)."""
    return [
        edge
        for name in graph.inputs
        for edge in graph.fanout_edges(name)
    ]


def test_incremental_reextraction_speedup_on_c7552(benchmark, c7552_module):
    """Single-retime re-extraction of c7552: warm model equals a cold one."""
    graph, variation = c7552_module

    session = ExtractionSession(graph, variation)
    session.extract(THRESHOLD)  # warm the session (full first pipeline run)

    start = time.perf_counter()
    cold_model = extract_timing_model(graph, variation, THRESHOLD)
    cold_seconds = time.perf_counter() - start

    rng = random.Random(7)
    candidates = _input_stage_edges(graph)
    warm_seconds = []
    for _unused in range(5):
        edge = rng.choice(candidates)
        graph.replace_edge_delay(edge, edge.delay.scale(rng.uniform(0.9, 1.1)))
        start = time.perf_counter()
        warm_model = session.extract(THRESHOLD)
        warm_seconds.append(time.perf_counter() - start)
    warm_seconds.sort()
    median_seconds = warm_seconds[len(warm_seconds) // 2]
    speedup = cold_seconds / median_seconds

    # Parity spot-check: the warm model matches a cold re-extraction of
    # the edited graph, at the 1e-9 contract of the parity tests.
    cold_reference = extract_timing_model(graph, variation, THRESHOLD)
    assert warm_model.stats == cold_reference.stats
    warm_edges = sorted(
        ((e.source, e.sink, e.delay.nominal) for e in warm_model.graph.edges),
        key=lambda item: item[:2],
    )
    cold_edges = sorted(
        ((e.source, e.sink, e.delay.nominal) for e in cold_reference.graph.edges),
        key=lambda item: item[:2],
    )
    assert len(warm_edges) == len(cold_edges)
    for warm_edge, cold_edge in zip(warm_edges, cold_edges):
        assert warm_edge[:2] == cold_edge[:2]
        assert abs(warm_edge[2] - cold_edge[2]) <= 1e-9 * (1.0 + abs(cold_edge[2]))

    # One mid-graph retime (dense reconvergence moves the delay matrix
    # almost everywhere).  Reported, not asserted.
    mid_edge = graph.edges[len(graph.edges) // 2]
    graph.replace_edge_delay(mid_edge, mid_edge.delay.scale(1.05))
    start = time.perf_counter()
    session.extract(THRESHOLD)
    midgraph_seconds = time.perf_counter() - start

    # Threshold sweep tail: with the tensors and criticalities warm, each
    # additional threshold costs only copy-remove-merge.
    start = time.perf_counter()
    session.extract(0.1)
    sweep_tail_seconds = time.perf_counter() - start

    benchmark.extra_info["cold_s"] = round(cold_seconds, 2)
    benchmark.extra_info["warm_median_s"] = round(median_seconds, 2)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    benchmark.extra_info["midgraph_warm_s"] = round(midgraph_seconds, 2)
    benchmark.extra_info["sweep_tail_s"] = round(sweep_tail_seconds, 3)
    benchmark.extra_info["model_edges"] = cold_model.stats.model_edges

    def one_retime_and_reextract():
        edge = rng.choice(candidates)
        graph.replace_edge_delay(edge, edge.delay.scale(rng.uniform(0.95, 1.05)))
        return session.extract(THRESHOLD)

    benchmark(one_retime_and_reextract)
