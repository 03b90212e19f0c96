"""Edges-per-second scaling curve of the core engines, 10^4 to 10^6 edges.

Sweeps generated designs (the ``pipeline`` family of
:func:`repro.netlist.generators.design_for_edge_count`, stamped through the
linear-time :func:`repro.timing.builder.synthetic_timing_graph`) across
three decades of edge count and records, per size:

* levelized arrival propagation throughput (graph edges per second),
* blocked all-pairs throughput (edge-folds per second over a fixed
  column block, the memory-bounded streaming unit of the engine),
* flat Monte Carlo throughput (edge-samples per second), and
* the process peak RSS high-water mark after each run.

Results merge into ``.benchmarks/BENCH_scaling.json`` (gitignored).  The
asserted floor: propagation throughput on the generated 10^5-edge design
must stay within ``REPRO_SCALING_FLOOR_FACTOR`` (default 4x) of the same
engine's throughput on c7552 — synthetic scale must not quietly fall off
the levelized kernel's fast path.

Like the other benchmarks this file is run explicitly
(``pytest benchmarks/bench_scaling.py``).  The ladder climbs to 10^6 edges
by default; set ``REPRO_SCALING_MAX_EDGES`` (e.g. ``100000`` in CI) to cap
it for a smoke run.
"""

from __future__ import annotations

import os
import resource
import time

from conftest import record_bench
from repro.core.batch import FoldWorkspace
from repro.liberty.library import standard_library
from repro.netlist.generators import design_for_edge_count
from repro.netlist.iscas85 import iscas85_surrogate
from repro.placement.placer import place_netlist
from repro.timing.allpairs import AllPairsTiming
from repro.timing.arrays import GraphArrays
from repro.timing.builder import (
    build_timing_graph,
    default_variation_for,
    synthetic_timing_graph,
)
from repro.timing.propagation import propagate_arrival_times_batch
from repro.montecarlo.flat import auto_chunk_size, simulate_graph_delay

LADDER = (10_000, 100_000, 1_000_000)

#: Columns per streamed all-pairs block and Monte Carlo samples measured
#: per size: fixed so the curve compares per-unit throughput, not sweep
#: width (a million-edge design has hundreds of primary inputs; folding
#: all of them is a different benchmark).
ALLPAIRS_BENCH_COLUMNS = 8
MC_BENCH_SAMPLES = 16


def _max_edges() -> int:
    raw = os.environ.get("REPRO_SCALING_MAX_EDGES")
    return int(raw) if raw else LADDER[-1]


def _floor_factor() -> float:
    return float(os.environ.get("REPRO_SCALING_FLOOR_FACTOR", "4.0"))


def _peak_rss_kb() -> int:
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _propagation_throughput(graph, arrays) -> float:
    """Levelized forward-pass throughput in edges per second.

    ``arrays`` is the graph's view, held by the caller so the timed pass
    reuses it.
    """
    arrays.forward_levels()  # schedule built outside the timed region
    start = time.perf_counter()
    times = propagate_arrival_times_batch(graph)
    elapsed = time.perf_counter() - start
    assert times.arrays is arrays
    assert times.valid.all()
    return arrays.edge_ids.size / elapsed


def _allpairs_block_throughput(graph) -> float:
    """Blocked all-pairs throughput in edge-folds per second.

    Folds one ``ALLPAIRS_BENCH_COLUMNS``-wide arrival block — the unit
    the blocked engine repeats per budget window — and counts one edge
    fold per (edge, column).
    """
    analysis = AllPairsTiming(GraphArrays.of(graph), materialize=False)
    columns = range(min(ALLPAIRS_BENCH_COLUMNS, analysis.num_inputs))
    start = time.perf_counter()
    _mean, _corr, _randvar, valid = analysis._column_block(
        columns, False, FoldWorkspace()
    )
    elapsed = time.perf_counter() - start
    assert valid.any()
    return analysis.arrays.edge_ids.size * len(columns) / elapsed


def _montecarlo_throughput(graph, arrays) -> float:
    """Flat Monte Carlo throughput in edge-samples per second.

    Runs while the caller holds the graph's view ``arrays`` (like the
    propagation measurement), so the figure tracks sampling + levelized
    propagation rather than the ``GraphArrays`` rebuild — at 10^6 edges
    the rebuild alone costs several times the measured work and used to
    swamp this number.
    """
    start = time.perf_counter()
    result = simulate_graph_delay(graph, MC_BENCH_SAMPLES, seed=9)
    elapsed = time.perf_counter() - start
    assert GraphArrays.of(graph) is arrays
    assert result.samples.shape == (MC_BENCH_SAMPLES,)
    return graph.num_edges * MC_BENCH_SAMPLES / elapsed


def _reference_throughput() -> float:
    """c7552 propagation throughput through the paper-faithful build."""
    netlist = iscas85_surrogate("c7552")
    library = standard_library()
    placement = place_netlist(netlist, library)
    variation = default_variation_for(netlist, placement)
    graph = build_timing_graph(netlist, library, placement, variation)
    arrays = GraphArrays.of(graph)
    return _propagation_throughput(graph, arrays)


def test_scaling_curve():
    cap = _max_edges()
    sizes = [size for size in LADDER if size <= cap]
    assert sizes, "REPRO_SCALING_MAX_EDGES below the smallest ladder rung"
    reference = _reference_throughput()
    record_bench(
        "BENCH_scaling.json",
        "reference_c7552",
        {"propagation_edges_per_s": round(reference, 1)},
    )

    floor_size = 100_000
    floor = reference / _floor_factor()
    for size in sizes:
        netlist = design_for_edge_count("pipeline", size, seed=13)
        graph = synthetic_timing_graph(netlist, seed=13)
        arrays = GraphArrays.of(graph)
        assert abs(arrays.edge_ids.size - size) <= 0.1 * size

        propagation = _propagation_throughput(graph, arrays)
        allpairs = _allpairs_block_throughput(graph)
        montecarlo = _montecarlo_throughput(graph, arrays)
        record_bench(
            "BENCH_scaling.json",
            "pipeline_%d" % size,
            {
                "edges": int(arrays.edge_ids.size),
                "vertices": int(arrays.num_vertices),
                "propagation_edges_per_s": round(propagation, 1),
                "allpairs_edge_folds_per_s": round(allpairs, 1),
                "montecarlo_edge_samples_per_s": round(montecarlo, 1),
                "montecarlo_chunk": auto_chunk_size(
                    int(arrays.edge_ids.size),
                    int(arrays.num_vertices),
                    num_samples=MC_BENCH_SAMPLES,
                ),
                "graph_arrays_bytes": int(arrays.nbytes_report()["total"]),
                "peak_rss_kb": _peak_rss_kb(),
            },
        )
        if size == floor_size:
            assert propagation >= floor, (
                "propagation throughput at %d edges (%.0f edges/s) degraded "
                "more than %.1fx below the c7552 reference (%.0f edges/s)"
                % (size, propagation, _floor_factor(), reference)
            )
