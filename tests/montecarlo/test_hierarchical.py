"""Tests of design flattening and the hierarchical Monte Carlo reference."""

import pytest

from repro.errors import HierarchyError
from repro.experiments.config import ExperimentConfig
from repro.experiments.figure7 import build_multiplier_design, build_multiplier_module
from repro.hier.design import HierarchicalDesign, ModuleInstance
from repro.montecarlo.hierarchical import (
    build_flat_timing_graph,
    flat_edge_batch,
    flatten_design,
    monte_carlo_hierarchical,
)
from repro.timing.arrays import GraphArrays
from repro.variation.grid import Die


@pytest.fixture(scope="module")
def quad():
    config = ExperimentConfig(monte_carlo_samples=500)
    module = build_multiplier_module(bits=4, config=config)
    return module, build_multiplier_design(module)


class TestFlattenDesign:
    def test_flat_netlist_size(self, quad):
        module, design = quad
        flat, placement = flatten_design(design)
        assert flat.num_gates == 4 * module.netlist.num_gates
        assert len(flat.primary_inputs) == len(design.primary_inputs)
        assert len(flat.primary_outputs) == len(design.primary_outputs)
        flat.validate()

    def test_flat_placement_is_translated(self, quad):
        module, design = quad
        _flat, placement = flatten_design(design)
        instance = design.instances[-1]
        gate = module.netlist.gates[0]
        original_x, original_y = module.placement.location(gate.name)
        flat_x, flat_y = placement.location(instance.prefix + gate.name)
        assert flat_x == pytest.approx(original_x + instance.origin_x)
        assert flat_y == pytest.approx(original_y + instance.origin_y)

    def test_cross_connections_are_aliased(self, quad):
        module, design = quad
        flat, _placement = flatten_design(design)
        # Inputs of second-column multipliers are driven by gate outputs of
        # the first column, so no net named "m0_1/A0" may remain undriven.
        for gate in flat.gates:
            for net in gate.inputs:
                assert flat.driver(net) is not None or net in flat.primary_inputs

    def test_nonzero_interconnect_delay_rejected(self, quad):
        module, _design = quad
        design = HierarchicalDesign("delayed", Die(500.0, 500.0))
        design.add_instance(
            ModuleInstance("m", module.model, 0.0, 0.0, netlist=module.netlist,
                           placement=module.placement)
        )
        for port in module.model.inputs:
            design.add_primary_input("PI_%s" % port)
            design.connect("PI_%s" % port, "m/%s" % port, delay=0.0)
        for port in module.model.outputs:
            design.add_primary_output("PO_%s" % port)
            design.connect("m/%s" % port, "PO_%s" % port, delay=5.0)
        with pytest.raises(HierarchyError):
            flatten_design(design)

    def test_missing_netlist_rejected(self, quad):
        module, _design = quad
        design = HierarchicalDesign("no_netlist", Die(500.0, 500.0))
        design.add_instance(ModuleInstance("m", module.model, 0.0, 0.0))
        for port in module.model.inputs:
            design.add_primary_input("PI_%s" % port)
            design.connect("PI_%s" % port, "m/%s" % port)
        for port in module.model.outputs:
            design.add_primary_output("PO_%s" % port)
            design.connect("m/%s" % port, "PO_%s" % port)
        with pytest.raises(HierarchyError):
            flatten_design(design)


class TestFlatTimingGraph:
    def test_graph_size_matches_flat_netlist(self, quad):
        _module, design = quad
        flat, _placement = flatten_design(design)
        graph = build_flat_timing_graph(design)
        assert graph.num_edges == flat.num_connections
        assert graph.num_vertices == len(flat.primary_inputs) + flat.num_gates

    def test_monte_carlo_runs(self, quad):
        _module, design = quad
        result = monte_carlo_hierarchical(design, num_samples=300, seed=0)
        assert result.num_samples == 300
        assert result.mean > 0.0
        assert result.std > 0.0

    def test_flat_edge_batch_matches_graph(self, quad):
        import numpy as np

        _module, design = quad
        batch = flat_edge_batch(design)
        arrays = GraphArrays.from_graph(build_flat_timing_graph(design))
        assert len(batch) == arrays.edge_mean.shape[0]
        assert np.array_equal(batch.nominal, arrays.edge_mean)
        assert np.array_equal(batch.corr, arrays.edge_corr)
        assert np.array_equal(batch.random_var, arrays.edge_randvar)
        # The batch is what the simulator samples from.
        samples = batch.sample(np.random.default_rng(0), 200)
        assert samples.shape == (len(batch), 200)
        assert np.allclose(samples.mean(axis=1), batch.nominal, atol=4.0 * batch.std.max())
