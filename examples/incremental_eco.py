"""Incremental ECO what-ifs: edit the graph, re-query, repeat.

This example walks the two headline incremental workflows:

1. **Flat single-edge what-ifs** — an :class:`IncrementalTimer` session is
   attached to an ISCAS85 graph; retiming one edge (an ECO-style buffer
   resize) and re-querying the circuit delay repropagates only the edit's
   fan-out cone instead of the whole graph.
2. **Hierarchical block swaps** — a :class:`DesignTimer` keeps a pipeline
   of pre-characterized multiplier modules alive; swapping one instance's
   extracted timing model re-times the design without rebuilding it, which
   is the paper's model-exchange use case served at what-if speed.

Run with ``PYTHONPATH=src python examples/incremental_eco.py``.
"""

from __future__ import annotations

import time

from repro.experiments.config import ExperimentConfig
from repro.experiments.figure7 import build_multiplier_module
from repro.hier.analysis import DesignTimer, analyze_hierarchical_design
from repro.hier.design import HierarchicalDesign, ModuleInstance
from repro.liberty.library import standard_library
from repro.model.extraction import extract_timing_model
from repro.netlist.iscas85 import iscas85_surrogate
from repro.placement.placer import place_netlist
from repro.timing.builder import build_timing_graph, default_variation_for
from repro.timing.incremental import IncrementalTimer
from repro.timing.propagation import propagate_arrival_times_batch
from repro.variation.grid import Die


def flat_single_edge_whatifs() -> None:
    print("=== Flat single-edge what-ifs (c1908) ===")
    netlist = iscas85_surrogate("c1908")
    library = standard_library()
    placement = place_netlist(netlist, library)
    variation = default_variation_for(netlist, placement)
    graph = build_timing_graph(netlist, library, placement, variation)

    session = IncrementalTimer(graph)
    baseline = session.circuit_delay()
    print("baseline delay: mean %.1f ps, std %.1f ps" % (baseline.mean, baseline.std))

    # Sweep the most critical edge through candidate sizings; each step
    # edits the graph and re-queries — the session re-times only the
    # edit's fan-out cone.
    session.set_required_time(baseline)
    criticalities = session.criticalities()
    edge = graph.edge(max(criticalities, key=criticalities.get))
    original = edge.delay
    for factor in (0.8, 0.9, 1.1, 1.25):
        graph.replace_edge_delay(edge, original.scale(factor))
        start = time.perf_counter()
        delay = session.circuit_delay()
        elapsed = 1000 * (time.perf_counter() - start)
        stats = session.last_update
        cone = stats.forward_recomputed if stats else 0
        print(
            "  edge x%.2f -> delay mean %.1f ps   (%.2f ms, cone %d of %d vertices)"
            % (factor, delay.mean, elapsed, cone, graph.num_vertices)
        )
    graph.replace_edge_delay(edge, original)
    session.circuit_delay()

    # The full-repropagation equivalent, for comparison.
    start = time.perf_counter()
    propagate_arrival_times_batch(graph)  # array conversion included
    elapsed = 1000 * (time.perf_counter() - start)
    print("full repropagation of the same graph: %.2f ms" % elapsed)

    # Slack queries reuse the same session state (the backward cone is
    # drained lazily the first time a slack is asked for).
    worst = min(session.slacks().values(), key=lambda form: form.mean)
    print("worst slack vs baseline constraint: %.2f ps\n" % worst.mean)


def hierarchical_block_swaps() -> None:
    print("=== Hierarchical block swaps (8-stage multiplier pipeline) ===")
    config = ExperimentConfig(monte_carlo_samples=400)
    module = build_multiplier_module(bits=4, config=config)
    library = standard_library()
    full_graph = build_timing_graph(
        module.netlist, library, module.placement, module.variation,
        name=module.netlist.name,
    )
    # Two candidate implementations of the same block: the paper-default
    # extraction and a more aggressively compressed one.
    model_a = module.model
    model_b = extract_timing_model(
        full_graph, module.variation, threshold=0.2, name="mult4_compressed"
    )

    stages = 8
    die = model_a.die
    design = HierarchicalDesign("pipeline", Die(die.width, stages * die.height))
    for stage in range(stages):
        design.add_instance(
            ModuleInstance("s%d" % stage, model_a, 0.0, stage * die.height)
        )
    for port in model_a.inputs:
        design.add_primary_input("PI_%s" % port)
        design.connect("PI_%s" % port, "s0/%s" % port)
    for stage in range(stages - 1):
        for out_port, in_port in zip(model_a.outputs, model_a.inputs):
            design.connect(
                "s%d/%s" % (stage, out_port), "s%d/%s" % (stage + 1, in_port)
            )
    for port in model_a.outputs:
        design.add_primary_output("PO_%s" % port)
        design.connect("s%d/%s" % (stages - 1, port), "PO_%s" % port)

    session = DesignTimer(design)
    print("baseline design delay: %.1f ps" % session.circuit_delay().mean)

    # What-if loop: try the compressed model in each pipeline stage.
    for stage in ("s7", "s4", "s0"):
        start = time.perf_counter()
        session.swap_instance_model(stage, model_b)
        delay = session.circuit_delay()
        elapsed = 1000 * (time.perf_counter() - start)
        print(
            "  swap %s -> compressed: delay %.1f ps   (%.2f ms incremental)"
            % (stage, delay.mean, elapsed)
        )
        session.swap_instance_model(stage, model_a)  # revert the what-if
    session.circuit_delay()

    start = time.perf_counter()
    analyze_hierarchical_design(design)
    elapsed = 1000 * (time.perf_counter() - start)
    print("full rebuild-and-repropagate of the same design: %.2f ms" % elapsed)


if __name__ == "__main__":
    flat_single_edge_whatifs()
    hierarchical_block_swaps()
