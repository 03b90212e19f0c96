"""Fig. 7 — hierarchical timing analysis of the four-multiplier design.

The paper builds an experimental hierarchical circuit from four c6288
modules (16x16 multipliers) placed in two columns in abutment, with the
outputs of the first column cross-connected to the inputs of the second
column.  Three delay curves are compared:

* Monte Carlo simulation of the flattened netlist (the reference);
* the proposed hierarchical analysis with independent-variable replacement;
* the baseline that only keeps the correlation from global variation.

The driver reproduces the three normalized CDFs, the accuracy of the
proposed method, and the speed-up of the model-based analysis over the
flattened Monte Carlo run (the paper reports three orders of magnitude).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.analysis.distributions import EmpiricalDistribution
from repro.analysis.metrics import max_cdf_gap, relative_error
from repro.analysis.reporting import ascii_cdf_plot, format_table
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.hier.analysis import (
    CorrelationMode,
    HierarchicalResult,
    analyze_hierarchical_design,
)
from repro.hier.design import HierarchicalDesign, ModuleInstance
from repro.liberty.library import Library, standard_library
from repro.model.extraction import extract_timing_model
from repro.model.timing_model import TimingModel
from repro.montecarlo.flat import MonteCarloResult
from repro.montecarlo.hierarchical import monte_carlo_hierarchical
from repro.netlist.multiplier import array_multiplier
from repro.netlist.netlist import Netlist
from repro.placement.placer import Placement, place_netlist
from repro.timing.builder import build_timing_graph
from repro.variation.grid import Die, GridPartition
from repro.variation.model import VariationModel

__all__ = ["MultiplierModule", "Figure7Result", "build_multiplier_module", "build_multiplier_design", "run_figure7"]


@dataclass
class MultiplierModule:
    """A characterized multiplier module ready for hierarchical instantiation."""

    netlist: Netlist
    placement: Placement
    variation: VariationModel
    model: TimingModel
    characterization_seconds: float


@dataclass
class Figure7Result:
    """The three delay curves of Fig. 7 plus accuracy and speed-up numbers."""

    bits: int
    monte_carlo: MonteCarloResult
    proposed: HierarchicalResult
    global_only: HierarchicalResult
    grid: np.ndarray
    curves: Dict[str, np.ndarray]
    monte_carlo_seconds: float
    proposed_seconds: float
    characterization_seconds: float

    @property
    def speedup(self) -> float:
        """Monte Carlo runtime divided by the hierarchical analysis runtime."""
        if self.proposed_seconds <= 0.0:
            return float("inf")
        return self.monte_carlo_seconds / self.proposed_seconds

    @property
    def proposed_mean_error(self) -> float:
        """Relative error of the proposed method's mean vs Monte Carlo."""
        return relative_error(self.proposed.mean, self.monte_carlo.mean)

    @property
    def proposed_std_error(self) -> float:
        """Relative error of the proposed method's sigma vs Monte Carlo."""
        return relative_error(self.proposed.std, self.monte_carlo.std)

    @property
    def global_only_std_error(self) -> float:
        """Relative sigma error of the global-only baseline vs Monte Carlo."""
        return relative_error(self.global_only.std, self.monte_carlo.std)

    @property
    def proposed_cdf_gap(self) -> float:
        """Maximum CDF deviation of the proposed method from Monte Carlo."""
        distribution = EmpiricalDistribution(self.monte_carlo.samples)
        return max_cdf_gap(distribution, self.proposed.mean, self.proposed.std)

    @property
    def global_only_cdf_gap(self) -> float:
        """Maximum CDF deviation of the global-only baseline from Monte Carlo."""
        distribution = EmpiricalDistribution(self.monte_carlo.samples)
        return max_cdf_gap(distribution, self.global_only.mean, self.global_only.std)

    def render(self) -> str:
        """Monospace rendering of the CDF comparison and the summary table."""
        plot = ascii_cdf_plot(
            self.grid,
            self.curves,
            title="Fig. 7 - results of hierarchical timing analysis (%dx%d multipliers)"
            % (self.bits, self.bits),
        )
        headers = ["method", "mean (ps)", "sigma (ps)", "max CDF gap", "runtime (s)"]
        rows = [
            ("Monte Carlo", "%.1f" % self.monte_carlo.mean, "%.1f" % self.monte_carlo.std,
             "-", "%.2f" % self.monte_carlo_seconds),
            ("proposed", "%.1f" % self.proposed.mean, "%.1f" % self.proposed.std,
             "%.3f" % self.proposed_cdf_gap, "%.4f" % self.proposed_seconds),
            ("global only", "%.1f" % self.global_only.mean, "%.1f" % self.global_only.std,
             "%.3f" % self.global_only_cdf_gap, "%.4f" % self.global_only.analysis_seconds),
        ]
        table = format_table(headers, rows)
        speed = "speed-up of hierarchical analysis over flattened Monte Carlo: %.0fx" % self.speedup
        return "\n".join([plot, "", table, speed])


def build_multiplier_module(
    bits: int = 16,
    config: ExperimentConfig = DEFAULT_CONFIG,
    library: Optional[Library] = None,
) -> MultiplierModule:
    """Generate, place and characterize one ``bits x bits`` multiplier module."""
    library = standard_library() if library is None else library
    start = time.perf_counter()
    netlist = array_multiplier(bits, name="mult%d" % bits)
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
    graph = build_timing_graph(netlist, library, placement, variation, name=netlist.name)
    model = extract_timing_model(graph, variation, config.criticality_threshold)
    elapsed = time.perf_counter() - start
    return MultiplierModule(netlist, placement, variation, model, elapsed)


def build_multiplier_design(
    module: MultiplierModule,
    design_name: str = "quad_multiplier",
) -> HierarchicalDesign:
    """Place four copies of ``module`` in two abutted columns and cross-connect.

    The outputs of the two first-column instances drive the inputs of the
    two second-column instances (paper, Section VI.B); the first column's
    inputs are the design's primary inputs and the second column's outputs
    are its primary outputs.
    """
    bits = len(module.netlist.primary_inputs) // 2
    die = module.model.die
    design = HierarchicalDesign(design_name, Die(2 * die.width, 2 * die.height))

    positions = {
        "m0_0": (0.0, 0.0),
        "m1_0": (0.0, die.height),
        "m0_1": (die.width, 0.0),
        "m1_1": (die.width, die.height),
    }
    for name, (x, y) in positions.items():
        design.add_instance(
            ModuleInstance(
                name,
                module.model,
                origin_x=x,
                origin_y=y,
                netlist=module.netlist,
                placement=module.placement,
            )
        )

    # Primary inputs feed the first-column multipliers.
    for instance_name in ("m0_0", "m1_0"):
        for port in module.model.inputs:
            pi = "PI_%s_%s" % (instance_name, port)
            design.add_primary_input(pi)
            design.connect(pi, "%s/%s" % (instance_name, port))

    # Cross-connect first-column outputs to second-column inputs: the low
    # product bits of each first-column multiplier drive the A operand of
    # one second-column multiplier, the high bits drive the other.
    outputs = list(module.model.outputs)
    a_ports = ["A%d" % bit for bit in range(bits)]
    b_ports = ["B%d" % bit for bit in range(bits)]
    for bit in range(bits):
        design.connect("m0_0/%s" % outputs[bit], "m0_1/%s" % a_ports[bit])
        design.connect("m0_0/%s" % outputs[bits + bit], "m1_1/%s" % a_ports[bit])
        design.connect("m1_0/%s" % outputs[bit], "m0_1/%s" % b_ports[bit])
        design.connect("m1_0/%s" % outputs[bits + bit], "m1_1/%s" % b_ports[bit])

    # Second-column outputs are the design's primary outputs.
    for instance_name in ("m0_1", "m1_1"):
        for port in module.model.outputs:
            po = "PO_%s_%s" % (instance_name, port)
            design.add_primary_output(po)
            design.connect("%s/%s" % (instance_name, port), po)

    design.validate()
    return design


def run_figure7(
    bits: int = 16,
    config: ExperimentConfig = DEFAULT_CONFIG,
    library: Optional[Library] = None,
    module: Optional[MultiplierModule] = None,
    grid_points: int = 101,
    workers: Optional[int] = None,
) -> Figure7Result:
    """Regenerate the Fig. 7 comparison for ``bits x bits`` multiplier modules.

    ``workers`` (default: ``config.workers``, then ``REPRO_WORKERS``)
    shards the flattened Monte Carlo reference — by far the dominant cost —
    across the process pool with bit-identical samples.
    """
    library = standard_library() if library is None else library
    if module is None:
        module = build_multiplier_module(bits, config, library)
    design = build_multiplier_design(module)

    proposed = analyze_hierarchical_design(design, CorrelationMode.REPLACEMENT)
    global_only = analyze_hierarchical_design(design, CorrelationMode.GLOBAL_ONLY)

    start = time.perf_counter()
    monte_carlo = monte_carlo_hierarchical(
        design,
        num_samples=config.monte_carlo_samples,
        seed=config.seed,
        library=library,
        workers=config.workers if workers is None else workers,
    )
    monte_carlo_seconds = time.perf_counter() - start

    low = min(monte_carlo.quantile(0.001), proposed.quantile(0.001), global_only.quantile(0.001))
    high = max(monte_carlo.quantile(0.999), proposed.quantile(0.999), global_only.quantile(0.999))
    grid = np.linspace(low, high, grid_points)
    curves = {
        "Monte Carlo": monte_carlo.cdf(grid),
        "proposed": proposed.cdf(grid),
        "global only": global_only.cdf(grid),
    }

    return Figure7Result(
        bits=bits,
        monte_carlo=monte_carlo,
        proposed=proposed,
        global_only=global_only,
        grid=grid,
        curves=curves,
        monte_carlo_seconds=monte_carlo_seconds,
        proposed_seconds=proposed.analysis_seconds,
        characterization_seconds=module.characterization_seconds,
    )
