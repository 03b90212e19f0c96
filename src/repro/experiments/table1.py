"""Table I — results of timing-model extraction on the ISCAS85 suite.

For every benchmark the driver builds the surrogate netlist, places it,
characterizes the statistical timing graph, extracts the gray-box timing
model at the configured criticality threshold, and reports:

``Eo, Vo`` — edges/vertices of the original timing graph;
``Em, Vm`` — edges/vertices of the extracted model;
``pe, pv`` — the compression ratios ``Em/Eo`` and ``Vm/Vo``;
``merr, verr`` — maximum relative error of the model's input/output delay
means and sigmas against Monte Carlo of the original netlist's timing
graph, for every row;
``T`` — extraction runtime in seconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import max_relative_matrix_error
from repro.analysis.reporting import format_percent, format_table
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.liberty.library import Library, standard_library
from repro.model.criticality import compute_edge_criticalities
from repro.model.extraction import extract_timing_model
from repro.model.timing_model import TimingModel
from repro.montecarlo.flat import simulate_io_delays
from repro.netlist.iscas85 import iscas85_surrogate
from repro.netlist.netlist import Netlist
from repro.placement.placer import Placement, place_netlist
from repro.timing.allpairs import AllPairsTiming
from repro.timing.builder import build_timing_graph
from repro.timing.graph import TimingGraph
from repro.variation.grid import GridPartition
from repro.variation.model import VariationModel

__all__ = ["CharacterizedCircuit", "Table1Row", "Table1Result", "characterize_circuit", "run_table1"]

#: The circuits of Table I, smallest first.
TABLE1_CIRCUITS: Tuple[str, ...] = (
    "c432",
    "c499",
    "c880",
    "c1355",
    "c1908",
    "c2670",
    "c3540",
    "c5315",
    "c6288",
    "c7552",
)


@dataclass
class CharacterizedCircuit:
    """A placed, characterized module ready for model extraction."""

    name: str
    netlist: Netlist
    library: Library
    placement: Placement
    variation: VariationModel
    graph: TimingGraph


@dataclass
class Table1Row:
    """One row of Table I."""

    circuit: str
    original_edges: int
    original_vertices: int
    model_edges: int
    model_vertices: int
    edge_ratio: float
    vertex_ratio: float
    mean_error: float
    std_error: float
    extraction_seconds: float
    reference: str

    def as_tuple(self) -> Tuple[object, ...]:
        """Row cells in the order of the paper's Table I."""
        return (
            self.circuit,
            self.original_edges,
            self.original_vertices,
            self.model_edges,
            self.model_vertices,
            format_percent(self.edge_ratio, 0),
            format_percent(self.vertex_ratio, 0),
            format_percent(self.mean_error, 2),
            format_percent(self.std_error, 2),
            "%.2f" % self.extraction_seconds,
            self.reference,
        )


@dataclass
class Table1Result:
    """All rows of Table I plus the averages reported by the paper."""

    rows: List[Table1Row]
    config: ExperimentConfig

    @property
    def average_edge_ratio(self) -> float:
        """Average ``p_e`` (the paper reports 20 %)."""
        return float(np.mean([row.edge_ratio for row in self.rows]))

    @property
    def average_vertex_ratio(self) -> float:
        """Average ``p_v`` (the paper reports 19 %)."""
        return float(np.mean([row.vertex_ratio for row in self.rows]))

    @property
    def average_mean_error(self) -> float:
        """Average ``merr`` (the paper reports 0.59 %)."""
        return float(np.mean([row.mean_error for row in self.rows]))

    @property
    def average_std_error(self) -> float:
        """Average ``verr`` (the paper reports 1.06 %)."""
        return float(np.mean([row.std_error for row in self.rows]))

    def render(self) -> str:
        """Monospace rendering in the layout of the paper's Table I."""
        headers = ["Circuit", "Eo", "Vo", "Em", "Vm", "pe", "pv", "merr", "verr", "T(s)", "ref"]
        rows = [row.as_tuple() for row in self.rows]
        rows.append(
            (
                "average",
                "",
                "",
                "",
                "",
                format_percent(self.average_edge_ratio, 0),
                format_percent(self.average_vertex_ratio, 0),
                format_percent(self.average_mean_error, 2),
                format_percent(self.average_std_error, 2),
                "",
                "",
            )
        )
        return format_table(headers, rows, title="Table I - results of timing model extraction")


def characterize_circuit(
    name: str,
    config: ExperimentConfig = DEFAULT_CONFIG,
    library: Optional[Library] = None,
    structural: bool = False,
) -> CharacterizedCircuit:
    """Build, place and characterize one ISCAS85 surrogate circuit."""
    library = standard_library() if library is None else library
    netlist = iscas85_surrogate(name, structural=structural)
    placement = place_netlist(netlist, library)
    partition = GridPartition.for_cell_count(
        placement.die, netlist.num_gates, config.max_cells_per_grid
    )
    variation = VariationModel(
        partition,
        config.correlation(),
        config.sigma_fraction(),
        config.random_variance_share,
    )
    graph = build_timing_graph(netlist, library, placement, variation, name=name)
    return CharacterizedCircuit(name, netlist, library, placement, variation, graph)


def _model_accuracy(
    circuit: CharacterizedCircuit,
    model: TimingModel,
    config: ExperimentConfig,
) -> Tuple[float, float]:
    """``(merr, verr)`` of a model against Monte Carlo.

    Every circuit is validated the way the paper does — against Monte
    Carlo of the original netlist's timing graph, whose working set
    stays within the chunk budget however many inputs the circuit has
    (see :func:`~repro.montecarlo.simulate_io_delays`).
    """
    reference = simulate_io_delays(
        circuit.graph,
        num_samples=config.monte_carlo_samples,
        seed=config.seed,
    )
    return (
        max_relative_matrix_error(model.delay_matrix_means(), reference.means),
        max_relative_matrix_error(model.delay_matrix_stds(), reference.stds),
    )


def _table1_row(payload: Tuple[str, ExperimentConfig, Optional[Library], bool]) -> Table1Row:
    """Build, extract and validate one Table I row (a sharding work unit).

    ``payload`` is ``(name, config, library, validate_accuracy)`` with
    ``library=None`` meaning the standard library (workers rebuild it
    locally instead of unpickling it).  Each row is fully self-contained —
    the characterize/extract/validate pipeline of one circuit — which is
    what makes the whole-suite run embarrassingly parallel.
    """
    name, config, library, validate_accuracy = payload
    library = standard_library() if library is None else library
    circuit = characterize_circuit(name, config, library)
    start = time.perf_counter()
    analysis = AllPairsTiming.analyze(circuit.graph)
    criticalities = compute_edge_criticalities(circuit.graph, analysis)
    model = extract_timing_model(
        circuit.graph,
        circuit.variation,
        config.criticality_threshold,
        analysis=analysis,
        criticalities=criticalities,
    )
    extraction_seconds = time.perf_counter() - start

    if validate_accuracy:
        mean_error, std_error = _model_accuracy(circuit, model, config)
        reference = "monte-carlo"
    else:
        mean_error, std_error, reference = 0.0, 0.0, "skipped"

    return Table1Row(
        circuit=name,
        original_edges=model.stats.original_edges,
        original_vertices=model.stats.original_vertices,
        model_edges=model.stats.model_edges,
        model_vertices=model.stats.model_vertices,
        edge_ratio=model.stats.edge_ratio,
        vertex_ratio=model.stats.vertex_ratio,
        mean_error=mean_error,
        std_error=std_error,
        extraction_seconds=extraction_seconds,
        reference=reference,
    )


def run_table1(
    circuits: Optional[Sequence[str]] = None,
    config: ExperimentConfig = DEFAULT_CONFIG,
    library: Optional[Library] = None,
    validate_accuracy: bool = True,
    workers: Optional[int] = None,
    executor=None,
) -> Table1Result:
    """Regenerate Table I for the requested circuits (default: full suite).

    ``workers`` (default: ``config.workers``, then ``REPRO_WORKERS``)
    shards the per-circuit rows across the process pool — each row is an
    independent characterize/extract/validate pipeline.  Row values are
    identical to a serial run (even a run the pool had to retry, respawn
    or degrade to finish; see ``executor.last_report``); only the per-row
    ``T`` timings reflect the worker the row ran on.
    """
    from repro.parallel.pool import maybe_executor

    if circuits is None:
        circuits = TABLE1_CIRCUITS
    payloads = [
        (name, config, library, validate_accuracy) for name in circuits
    ]
    executor = maybe_executor(
        config.workers if workers is None else workers, executor
    )
    if executor is not None and executor.engine == "process":
        rows = executor.run("table1_row", payloads)
    else:
        rows = [_table1_row(payload) for payload in payloads]
    return Table1Result(rows=list(rows), config=config)
