"""End-to-end integration tests crossing every layer of the library."""

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.hier.analysis import CorrelationMode, analyze_hierarchical_design
from repro.hier.design import HierarchicalDesign, ModuleInstance
from repro.liberty.library import standard_library
from repro.model.extraction import extract_timing_model
from repro.montecarlo.flat import simulate_graph_delay, simulate_io_delays
from repro.montecarlo.hierarchical import monte_carlo_hierarchical
from repro.netlist.bench import parse_bench, write_bench
from repro.netlist.generators import carry_select_adder, ripple_carry_adder
from repro.placement.placer import place_netlist
from repro.timing.builder import build_timing_graph, default_variation_for
from repro.timing.propagation import circuit_delay
from repro.timing.sta import corner_sta
from repro.variation.grid import Die


class TestModuleFlow:
    """Netlist -> placement -> characterization -> model -> validation."""

    def test_bench_roundtrip_to_model(self, library):
        original = carry_select_adder(8)
        netlist = parse_bench(write_bench(original), original.name)
        placement = place_netlist(netlist, library)
        variation = default_variation_for(netlist, placement)
        graph = build_timing_graph(netlist, library, placement, variation)
        model = extract_timing_model(graph, variation, threshold=0.05)

        assert model.stats.model_edges < graph.num_edges
        reference = simulate_io_delays(graph, num_samples=1500, seed=4)
        means = model.delay_matrix_means()
        mask = np.isfinite(means) & np.isfinite(reference.means)
        errors = np.abs(means[mask] - reference.means[mask]) / reference.means[mask]
        assert errors.max() < 0.08

    def test_ssta_less_pessimistic_than_corner(self, library):
        netlist = ripple_carry_adder(8)
        graph = build_timing_graph(netlist, library)
        ssta = circuit_delay(graph)
        corners = corner_sta(graph, sigma_corner=3.0)
        assert ssta.mean + 3.0 * ssta.std < corners.worst
        assert corners.best < ssta.mean


class TestHierarchicalFlow:
    """Two different modules assembled into one design and validated."""

    def test_mixed_module_design_against_monte_carlo(self, library):
        config = ExperimentConfig()
        # Both modules are characterized with the same default grid size, as
        # the paper's design-level grid construction assumes (Section V).
        from repro.variation.grid import GridPartition
        from repro.variation.model import VariationModel

        grid_size = 4.0
        modules = {}
        for name, netlist in (
            ("adder", ripple_carry_adder(8)),
            ("csel", carry_select_adder(8)),
        ):
            placement = place_netlist(netlist, library)
            partition = GridPartition.regular(placement.die, grid_size)
            variation = VariationModel(partition, config.correlation(),
                                       config.sigma_fraction(), config.random_variance_share)
            graph = build_timing_graph(netlist, library, placement, variation, name=name)
            model = extract_timing_model(graph, variation, config.criticality_threshold)
            modules[name] = (netlist, placement, model)

        adder_die = modules["adder"][2].die
        csel_die = modules["csel"][2].die
        design = HierarchicalDesign(
            "mixed", Die(adder_die.width + csel_die.width, max(adder_die.height, csel_die.height))
        )
        design.add_instance(
            ModuleInstance("front", modules["adder"][2], 0.0, 0.0,
                           netlist=modules["adder"][0], placement=modules["adder"][1])
        )
        design.add_instance(
            ModuleInstance("back", modules["csel"][2], adder_die.width, 0.0,
                           netlist=modules["csel"][0], placement=modules["csel"][1])
        )

        front_model = modules["adder"][2]
        back_model = modules["csel"][2]
        for port in front_model.inputs:
            design.add_primary_input("PI_%s" % port)
            design.connect("PI_%s" % port, "front/%s" % port)
        # Front outputs drive the first back inputs; remaining back inputs
        # come straight from primary inputs.
        back_inputs = list(back_model.inputs)
        for output, sink in zip(front_model.outputs, back_inputs):
            design.connect("front/%s" % output, "back/%s" % sink)
        for sink in back_inputs[len(front_model.outputs):]:
            design.add_primary_input("PI_back_%s" % sink)
            design.connect("PI_back_%s" % sink, "back/%s" % sink)
        for port in back_model.outputs:
            design.add_primary_output("PO_%s" % port)
            design.connect("back/%s" % port, "PO_%s" % port)
        design.validate()

        proposed = analyze_hierarchical_design(design, CorrelationMode.REPLACEMENT)
        reference = monte_carlo_hierarchical(design, num_samples=1200, seed=6)
        assert proposed.mean == pytest.approx(reference.mean, rel=0.06)
        assert proposed.std == pytest.approx(reference.std, rel=0.35)

    def test_replacement_beats_global_only_for_abutted_copies(self, library):
        netlist = ripple_carry_adder(12)
        placement = place_netlist(netlist, library)
        variation = default_variation_for(netlist, placement)
        graph = build_timing_graph(netlist, library, placement, variation, name="rca12")
        model = extract_timing_model(graph, variation, 0.05)

        die = model.die
        design = HierarchicalDesign("pair", Die(2 * die.width, die.height))
        for index, name in enumerate(("left", "right")):
            design.add_instance(
                ModuleInstance(name, model, index * die.width, 0.0,
                               netlist=netlist, placement=placement)
            )
        for name in ("left", "right"):
            for port in model.inputs:
                design.add_primary_input("PI_%s_%s" % (name, port))
                design.connect("PI_%s_%s" % (name, port), "%s/%s" % (name, port))
            for port in model.outputs:
                design.add_primary_output("PO_%s_%s" % (name, port))
                design.connect("%s/%s" % (name, port), "PO_%s_%s" % (name, port))
        design.validate()

        proposed = analyze_hierarchical_design(design, CorrelationMode.REPLACEMENT)
        global_only = analyze_hierarchical_design(design, CorrelationMode.GLOBAL_ONLY)
        reference = monte_carlo_hierarchical(design, num_samples=1500, seed=7)

        assert abs(proposed.std - reference.std) <= abs(global_only.std - reference.std)
        assert proposed.mean == pytest.approx(reference.mean, rel=0.05)
