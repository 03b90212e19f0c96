"""Benchmarks of the incremental SSTA engine vs full repropagation.

Measures what a what-if consumer actually pays after an edit:

* **single-edge edits on c7552** — one edge is retimed, then the circuit
  delay is re-queried.  The incremental session repropagates only the
  edit's fan-out cone over its maintained array cache; the full baseline
  must redo the graph-to-array conversion and a complete forward pass.
  The headline assertion of the incremental refactor lives here: the
  median incremental query must be at least 5x faster than the full
  repropagation (``REPRO_INCR_SPEEDUP_MIN`` overrides the threshold for
  noisy shared runners; the CI smoke job relaxes it).
* **block swaps on a 24-stage multiplier pipeline** — one near-output
  instance's extracted model is swapped (the classic ECO hot loop) and the
  design delay re-queried, against the full rebuild-and-repropagate of
  ``analyze_hierarchical_design`` (which re-remaps every instance, not
  just the swapped one).  Asserted at ``REPRO_SWAP_SPEEDUP_MIN`` (default
  1.5x; ~4x locally — the margin grows with the number of instances).

Like the other benchmarks this file is run explicitly
(``pytest benchmarks/bench_incremental.py``).
"""

from __future__ import annotations

import os
import random
import time

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.figure7 import build_multiplier_module
from repro.hier.analysis import DesignTimer, analyze_hierarchical_design
from repro.liberty.library import standard_library
from repro.model.extraction import extract_timing_model
from repro.netlist.iscas85 import iscas85_surrogate
from repro.placement.placer import place_netlist
from repro.timing.builder import build_timing_graph, default_variation_for
from repro.timing.graph import TimingGraph
from repro.timing.incremental import IncrementalTimer
from repro.timing.propagation import propagate_arrival_times_batch


def _iscas_graph(name: str) -> TimingGraph:
    netlist = iscas85_surrogate(name)
    library = standard_library()
    placement = place_netlist(netlist, library)
    variation = default_variation_for(netlist, placement)
    return build_timing_graph(netlist, library, placement, variation)


def _full_circuit_delay(graph: TimingGraph):
    """What a non-incremental consumer pays per delay query after an edit.

    Holds no view across calls, so every call pays the graph-to-arrays
    conversion as well as the full forward pass.
    """
    times = propagate_arrival_times_batch(graph)
    rows = [int(row) for row in times.arrays.output_rows if times.valid[row]]
    return times.batch.gather(rows).max_over()


def _best_of(fn, repetitions: int = 5) -> float:
    best = float("inf")
    for _unused in range(repetitions):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_incremental_single_edge_speedup_on_c7552(benchmark):
    """Acceptance check: >= 5x on single-edge retimes of c7552.

    The incremental session times each edit's dirty cone only; the full
    baseline redoes array conversion plus a complete forward pass.
    ``REPRO_INCR_SPEEDUP_MIN`` overrides the threshold (the CI smoke job
    relaxes it to keep noisy runners from failing unrelated commits).
    """
    threshold = float(os.environ.get("REPRO_INCR_SPEEDUP_MIN", "5.0"))
    graph = _iscas_graph("c7552")
    timer = IncrementalTimer(graph)
    timer.circuit_delay()  # warm the session (full first pass)
    _full_circuit_delay(graph)  # warm the baseline path

    full_seconds = _best_of(lambda: _full_circuit_delay(graph))

    rng = random.Random(3)
    edges = list(graph.edges)
    incremental_seconds = []
    for _unused in range(25):
        edge = rng.choice(edges)
        graph.replace_edge_delay(edge, edge.delay.scale(rng.uniform(0.9, 1.1)))
        start = time.perf_counter()
        timer.circuit_delay()
        incremental_seconds.append(time.perf_counter() - start)
    incremental_seconds.sort()
    median_seconds = incremental_seconds[len(incremental_seconds) // 2]
    mean_seconds = sum(incremental_seconds) / len(incremental_seconds)
    speedup = full_seconds / median_seconds

    benchmark.extra_info["full_ms"] = round(1000 * full_seconds, 2)
    benchmark.extra_info["incremental_median_ms"] = round(1000 * median_seconds, 2)
    benchmark.extra_info["incremental_mean_ms"] = round(1000 * mean_seconds, 2)
    benchmark.extra_info["speedup"] = round(speedup, 1)

    def one_edit_and_query():
        edge = rng.choice(edges)
        graph.replace_edge_delay(edge, edge.delay.scale(rng.uniform(0.95, 1.05)))
        return timer.circuit_delay()

    benchmark(one_edit_and_query)

    assert speedup >= threshold, (
        "incremental single-edge repropagation is only %.1fx faster than a "
        "full repropagation on c7552 (incremental median %.2f ms, full "
        "%.2f ms, threshold %.1fx)"
        % (speedup, 1000 * median_seconds, 1000 * full_seconds, threshold)
    )


SWAP_STAGES = 24


def _chain_design(module, stages: int):
    """A ``stages``-deep pipeline of one characterized module."""
    from repro.hier.design import HierarchicalDesign, ModuleInstance
    from repro.variation.grid import Die

    die = module.model.die
    design = HierarchicalDesign(
        "chain%d" % stages, Die(die.width, stages * die.height)
    )
    for stage in range(stages):
        design.add_instance(
            ModuleInstance("s%d" % stage, module.model, 0.0, stage * die.height)
        )
    inputs = module.model.inputs
    outputs = module.model.outputs
    for port in inputs:
        design.add_primary_input("PI_%s" % port)
        design.connect("PI_%s" % port, "s0/%s" % port)
    for stage in range(stages - 1):
        for out_port, in_port in zip(outputs, inputs):
            design.connect(
                "s%d/%s" % (stage, out_port), "s%d/%s" % (stage + 1, in_port)
            )
    for port in outputs:
        design.add_primary_output("PO_%s" % port)
        design.connect("s%d/%s" % (stages - 1, port), "PO_%s" % port)
    return design


@pytest.fixture(scope="module")
def swap_setup():
    config = ExperimentConfig(monte_carlo_samples=400)
    module = build_multiplier_module(bits=4, config=config)
    library = standard_library()
    full_graph = build_timing_graph(
        module.netlist, library, module.placement, module.variation,
        name=module.netlist.name,
    )
    alternate = extract_timing_model(
        full_graph, module.variation, threshold=0.2, name="mult4_t20"
    )
    design = _chain_design(module, SWAP_STAGES)
    return design, module.model, alternate


def test_block_swap_vs_full_rebuild(benchmark, swap_setup):
    """Block-swap what-ifs: swap a near-output instance, re-query the delay.

    The full baseline re-remaps all ``SWAP_STAGES`` instances and
    repropagates the whole design; the session splices one model subgraph
    and re-times its fan-out cone.
    """
    threshold = float(os.environ.get("REPRO_SWAP_SPEEDUP_MIN", "1.5"))
    design, model_a, model_b = swap_setup
    swapped = "s%d" % (SWAP_STAGES - 1)
    session = DesignTimer(design)
    session.circuit_delay()

    full_seconds = _best_of(lambda: analyze_hierarchical_design(design))

    models = [model_b, model_a]
    swap_seconds = []
    for index in range(11):
        model = models[index % 2]
        start = time.perf_counter()
        session.swap_instance_model(swapped, model)
        session.circuit_delay()
        swap_seconds.append(time.perf_counter() - start)
    swap_seconds.sort()
    median_seconds = swap_seconds[len(swap_seconds) // 2]
    speedup = full_seconds / median_seconds

    benchmark.extra_info["stages"] = SWAP_STAGES
    benchmark.extra_info["full_rebuild_ms"] = round(1000 * full_seconds, 2)
    benchmark.extra_info["swap_median_ms"] = round(1000 * median_seconds, 2)
    benchmark.extra_info["speedup"] = round(speedup, 1)

    state = {"index": 0}

    def one_swap_and_query():
        state["index"] += 1
        session.swap_instance_model(swapped, models[state["index"] % 2])
        return session.circuit_delay()

    benchmark(one_swap_and_query)

    assert speedup >= threshold, (
        "block swap is only %.1fx faster than a full rebuild (swap median "
        "%.2f ms, full %.2f ms, threshold %.1fx)"
        % (speedup, 1000 * median_seconds, 1000 * full_seconds, threshold)
    )
