"""Incremental model extraction: attach -> edit -> refresh -> re-extract.

This example walks the extraction-session lifecycle on the c1908 surrogate:

1. **Attach** — an :class:`ExtractionSession` binds to the module's full
   timing graph, runs the all-pairs analysis once and caches the per-edge
   criticalities against it.
2. **Sweep** — extracting at several thresholds reuses the cached tensors;
   each additional threshold pays only the copy-and-merge tail.
3. **Edit** — an ECO retime (here: resizing an input-stage buffer) lands
   in the graph's change journal.
4. **Refresh + re-extract** — the next ``extract`` replays the journal,
   repropagates only the dirty cone of the all-pairs tensors, recomputes
   the criticalities on them with the batched kernel, and emits a model
   identical to a cold pipeline run.

Run with ``PYTHONPATH=src python examples/incremental_extraction.py``.
"""

from __future__ import annotations

import time

from repro.liberty.library import standard_library
from repro.model.extraction import ExtractionSession, extract_timing_model
from repro.netlist.iscas85 import iscas85_surrogate
from repro.placement.placer import place_netlist
from repro.timing.builder import build_timing_graph, default_variation_for


def main() -> None:
    print("=== Incremental model extraction (c1908) ===")
    netlist = iscas85_surrogate("c1908")
    library = standard_library()
    placement = place_netlist(netlist, library)
    variation = default_variation_for(netlist, placement)
    graph = build_timing_graph(netlist, library, placement, variation)
    print(
        "module graph: %d vertices, %d edges, %d inputs, %d outputs"
        % (graph.num_vertices, graph.num_edges, len(graph.inputs), len(graph.outputs))
    )

    # 1. Attach: one full all-pairs analysis + criticality pass.
    start = time.perf_counter()
    session = ExtractionSession(graph, variation)
    model = session.extract(0.05)
    print(
        "attach + first extraction: %.2f s -> model %d/%d edges"
        % (
            time.perf_counter() - start,
            model.stats.model_edges,
            model.stats.original_edges,
        )
    )

    # 2. Threshold sweep: the tensors and criticalities are warm, so each
    #    additional threshold costs only the copy-and-merge tail.
    for threshold in (0.01, 0.1, 0.2):
        start = time.perf_counter()
        swept = session.extract(threshold)
        print(
            "  delta=%.2f -> %4d edges, %4d vertices   (%.3f s)"
            % (
                threshold,
                swept.stats.model_edges,
                swept.stats.model_vertices,
                time.perf_counter() - start,
            )
        )

    # 3. ECO retime: resize an input-stage buffer (scale its delay).
    edge = graph.fanout_edges(graph.inputs[0])[0]
    graph.replace_edge_delay(edge, edge.delay.scale(1.3))
    print(
        "ECO: retimed edge %d (%s -> %s) by 1.3x" % (edge.edge_id, edge.source, edge.sink)
    )

    # 4. Warm re-extraction: only the dirty cone repropagates.
    start = time.perf_counter()
    warm = session.extract(0.05)
    warm_seconds = time.perf_counter() - start
    update = session.allpairs.last_update
    print(
        "warm re-extraction: %.2f s (all-pairs cone: %d forward, %d "
        "backward of %d vertices)"
        % (
            warm_seconds,
            update.forward_recomputed if update else 0,
            update.backward_recomputed if update else 0,
            graph.num_vertices,
        )
    )

    # The from-scratch pipeline agrees exactly; it also reruns the cold
    # all-pairs analysis that the session skips.
    start = time.perf_counter()
    cold = extract_timing_model(graph, variation, 0.05)
    cold_seconds = time.perf_counter() - start
    assert warm.stats == cold.stats  # timings excluded from stats equality
    print(
        "cold re-extraction for comparison: %.2f s (%.1fx the warm time), "
        "models identical" % (cold_seconds, cold_seconds / max(warm_seconds, 1e-9))
    )


if __name__ == "__main__":
    main()
