"""Gray-box statistical timing-model extraction (the paper's Section IV).

The example characterizes an ISCAS85 surrogate circuit, extracts its timing
model at the paper's criticality threshold (0.05), and validates the model's
input/output delays against Monte Carlo simulation of the original netlist —
i.e. it reproduces one row of Table I.

Run with ``python examples/timing_model_extraction.py [circuit]``.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.experiments.config import DEFAULT_CONFIG
from repro.experiments.table1 import characterize_circuit
from repro.model import compute_edge_criticalities, extract_timing_model
from repro.montecarlo import simulate_io_delays
from repro.timing import AllPairsTiming


def main() -> None:
    circuit_name = sys.argv[1] if len(sys.argv) > 1 else "c880"
    config = DEFAULT_CONFIG.with_overrides(monte_carlo_samples=4000)

    print("characterizing %s ..." % circuit_name)
    circuit = characterize_circuit(circuit_name, config)
    graph = circuit.graph
    print("original timing graph: %d vertices, %d edges"
          % (graph.num_vertices, graph.num_edges))

    # All-pairs analysis + per-edge criticalities (Fig. 3, steps 1-2).
    analysis = AllPairsTiming.analyze(graph)
    criticalities = compute_edge_criticalities(graph, analysis)
    values = criticalities.values()
    print("edge criticalities: %.0f %% below %.2f, %.0f %% above 0.95"
          % (100.0 * float(np.mean(values < config.criticality_threshold)),
             config.criticality_threshold,
             100.0 * float(np.mean(values > 0.95))))

    # Non-critical edge removal + serial/parallel merges (Fig. 3, step 3).
    model = extract_timing_model(
        graph, circuit.variation, config.criticality_threshold,
        analysis=analysis, criticalities=criticalities,
    )
    stats = model.stats
    print("extracted model: %d vertices (%.0f %%), %d edges (%.0f %%) in %.2f s"
          % (stats.model_vertices, 100.0 * stats.vertex_ratio,
             stats.model_edges, 100.0 * stats.edge_ratio,
             stats.extraction_seconds))

    # Validate the model's input/output delays against Monte Carlo.
    print("validating against Monte Carlo (%d samples) ..." % config.monte_carlo_samples)
    reference = simulate_io_delays(
        graph, num_samples=config.monte_carlo_samples, seed=config.seed
    )
    model_means = model.delay_matrix_means()
    model_stds = model.delay_matrix_stds()
    mask = np.isfinite(model_means) & np.isfinite(reference.means)
    mean_errors = np.abs(model_means[mask] - reference.means[mask]) / reference.means[mask]
    std_errors = np.abs(model_stds[mask] - reference.stds[mask]) / reference.stds[mask]
    print("model accuracy over %d input/output pairs:" % int(mask.sum()))
    print("  max mean error  : %.2f %%" % (100.0 * mean_errors.max()))
    print("  max sigma error : %.2f %%" % (100.0 * std_errors.max()))


if __name__ == "__main__":
    main()
