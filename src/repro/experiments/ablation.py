"""Ablation studies of the design choices behind the paper's results.

Two sweeps are provided:

* **criticality threshold** (ABL-1) — how the model size and the
  input/output delay accuracy trade off as the threshold ``delta`` grows;
* **spatial correlation strength** (ABL-2) — how the sigma of the
  hierarchical design delay responds to the neighbouring-grid correlation,
  and how much of that the global-only baseline misses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import max_relative_matrix_error, relative_error
from repro.analysis.reporting import format_percent, format_table
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.figure7 import build_multiplier_design, build_multiplier_module
from repro.experiments.table1 import characterize_circuit
from repro.hier.analysis import CorrelationMode, analyze_hierarchical_design
from repro.liberty.library import Library, standard_library
from repro.model.extraction import ExtractionSession, extract_timing_model

__all__ = [
    "ThresholdSweepPoint",
    "ThresholdSweepResult",
    "run_threshold_sweep",
    "CorrelationSweepPoint",
    "CorrelationSweepResult",
    "run_correlation_sweep",
]


@dataclass
class ThresholdSweepPoint:
    """Model size and accuracy at one criticality threshold."""

    threshold: float
    model_edges: int
    model_vertices: int
    edge_ratio: float
    vertex_ratio: float
    mean_error: float
    std_error: float


@dataclass
class ThresholdSweepResult:
    """ABL-1: the threshold sweep of one circuit."""

    circuit: str
    points: List[ThresholdSweepPoint]

    def render(self) -> str:
        """Monospace table of the sweep."""
        headers = ["delta", "Em", "Vm", "pe", "pv", "merr", "verr"]
        rows = [
            (
                "%.3f" % point.threshold,
                point.model_edges,
                point.model_vertices,
                format_percent(point.edge_ratio, 0),
                format_percent(point.vertex_ratio, 0),
                format_percent(point.mean_error, 2),
                format_percent(point.std_error, 2),
            )
            for point in self.points
        ]
        return format_table(headers, rows, title="Threshold sweep on %s" % self.circuit)


def run_threshold_sweep(
    circuit: str = "c880",
    thresholds: Sequence[float] = (0.0, 0.01, 0.05, 0.1, 0.2, 0.4),
    config: ExperimentConfig = DEFAULT_CONFIG,
    library: Optional[Library] = None,
) -> ThresholdSweepResult:
    """Sweep the criticality threshold on one circuit (ABL-1).

    Accuracy is measured against the full-graph SSTA delay matrix so the
    sweep isolates the effect of the reduction itself.
    """
    library = standard_library() if library is None else library
    characterized = characterize_circuit(circuit, config, library)
    # One incremental extraction session drives the whole sweep: the
    # all-pairs tensors and criticalities are computed once and every
    # threshold pays only the copy-and-merge tail of the pipeline.
    session = ExtractionSession(characterized.graph, characterized.variation)
    reference_means = session.analysis.matrix_means()
    reference_stds = session.analysis.matrix_std()

    points: List[ThresholdSweepPoint] = []
    for threshold in thresholds:
        model = extract_timing_model(
            characterized.graph,
            characterized.variation,
            threshold,
            session=session,
        )
        points.append(
            ThresholdSweepPoint(
                threshold=threshold,
                model_edges=model.stats.model_edges,
                model_vertices=model.stats.model_vertices,
                edge_ratio=model.stats.edge_ratio,
                vertex_ratio=model.stats.vertex_ratio,
                mean_error=max_relative_matrix_error(model.delay_matrix_means(), reference_means),
                std_error=max_relative_matrix_error(model.delay_matrix_stds(), reference_stds),
            )
        )
    return ThresholdSweepResult(circuit=circuit, points=points)


@dataclass
class CorrelationSweepPoint:
    """Hierarchical design sigma at one spatial-correlation strength."""

    neighbor_correlation: float
    proposed_mean: float
    proposed_std: float
    global_only_std: float

    @property
    def std_gap(self) -> float:
        """Relative sigma difference between global-only and proposed."""
        return relative_error(self.global_only_std, self.proposed_std)


@dataclass
class CorrelationSweepResult:
    """ABL-2: the correlation sweep of the hierarchical design."""

    bits: int
    points: List[CorrelationSweepPoint]

    def render(self) -> str:
        """Monospace table of the sweep."""
        headers = ["neighbor rho", "mean (ps)", "sigma (ps)", "sigma global-only", "gap"]
        rows = [
            (
                "%.2f" % point.neighbor_correlation,
                "%.1f" % point.proposed_mean,
                "%.1f" % point.proposed_std,
                "%.1f" % point.global_only_std,
                format_percent(point.std_gap, 1),
            )
            for point in self.points
        ]
        return format_table(
            headers, rows, title="Correlation sweep on the %dx%d multiplier design" % (self.bits, self.bits)
        )


def _correlation_point(
    payload: Tuple[int, float, ExperimentConfig, Optional[Library]]
) -> CorrelationSweepPoint:
    """Evaluate one ABL-2 sweep point (a sharding work unit).

    ``payload`` is ``(bits, rho, config, library)`` with ``library=None``
    meaning the standard library.  Each point rebuilds its own module,
    design and the two hierarchical analyses, so the sweep points are
    fully independent of each other.
    """
    bits, rho, config, library = payload
    library = standard_library() if library is None else library
    point_config = config.with_overrides(
        neighbor_correlation=rho,
        floor_correlation=min(config.floor_correlation, rho),
    )
    module = build_multiplier_module(bits, point_config, library)
    design = build_multiplier_design(module)
    proposed = analyze_hierarchical_design(design, CorrelationMode.REPLACEMENT)
    global_only = analyze_hierarchical_design(design, CorrelationMode.GLOBAL_ONLY)
    return CorrelationSweepPoint(
        neighbor_correlation=rho,
        proposed_mean=proposed.mean,
        proposed_std=proposed.std,
        global_only_std=global_only.std,
    )


def run_correlation_sweep(
    bits: int = 8,
    neighbor_correlations: Sequence[float] = (0.5, 0.7, 0.92),
    config: ExperimentConfig = DEFAULT_CONFIG,
    library: Optional[Library] = None,
    workers: Optional[int] = None,
    executor=None,
) -> CorrelationSweepResult:
    """Sweep the neighbouring-grid correlation of the Fig. 7 design (ABL-2).

    ``workers`` (default: ``config.workers``, then ``REPRO_WORKERS``)
    shards the sweep points across the process pool — each point rebuilds
    its own design, so results are identical to a serial sweep even when
    the pool had to retry, respawn or degrade (recovery details land on
    ``executor.last_report``).
    """
    from repro.parallel.pool import maybe_executor

    payloads = [
        (bits, float(rho), config, library) for rho in neighbor_correlations
    ]
    executor = maybe_executor(
        config.workers if workers is None else workers, executor
    )
    if executor is not None and executor.engine == "process":
        points = executor.run("correlation_point", payloads)
    else:
        points = [_correlation_point(payload) for payload in payloads]
    return CorrelationSweepResult(bits=bits, points=list(points))
