"""Tests of the design-level hierarchical analysis."""

import numpy as np
import pytest

from repro.errors import HierarchyError
from repro.experiments.config import ExperimentConfig
from repro.experiments.figure7 import build_multiplier_design, build_multiplier_module
from repro.hier.analysis import (
    CorrelationMode,
    DesignTimer,
    analyze_hierarchical_design,
    build_design_graph,
)
from repro.hier.design import HierarchicalDesign, ModuleInstance
from repro.model.extraction import extract_timing_model
from repro.montecarlo.hierarchical import flatten_design, monte_carlo_hierarchical
from repro.variation.grid import Die


@pytest.fixture(scope="module")
def small_module():
    """A characterized 4x4 multiplier module (shared across tests: expensive)."""
    config = ExperimentConfig(monte_carlo_samples=800)
    return build_multiplier_module(bits=4, config=config), config


@pytest.fixture(scope="module")
def quad_design(small_module):
    module, _unused = small_module
    return build_multiplier_design(module)


class TestDesignGraph:
    def test_replacement_graph_structure(self, quad_design):
        graph, grids, pca = build_design_graph(quad_design, CorrelationMode.REPLACEMENT)
        assert grids is not None and pca is not None
        assert graph.num_locals == pca.num_components
        model_edges = sum(
            instance.model.graph.num_edges for instance in quad_design.instances
        )
        assert graph.num_edges == model_edges + len(quad_design.connections)
        assert set(graph.inputs) == set(quad_design.primary_inputs)
        assert set(graph.outputs) == set(quad_design.primary_outputs)

    def test_global_only_graph_structure(self, quad_design):
        graph, grids, pca = build_design_graph(quad_design, CorrelationMode.GLOBAL_ONLY)
        assert grids is None and pca is None
        expected_locals = sum(
            instance.model.num_locals for instance in quad_design.instances
        )
        assert graph.num_locals == expected_locals

    def test_unvalidated_design_rejected(self, small_module):
        module, _unused = small_module
        design = HierarchicalDesign("incomplete", Die(100.0, 100.0))
        design.add_instance(ModuleInstance("m", module.model, 0.0, 0.0,
                                           netlist=module.netlist, placement=module.placement))
        design.add_primary_input("PI")
        design.add_primary_output("PO")
        with pytest.raises(HierarchyError):
            build_design_graph(design)

    def test_doubly_driven_sinks_rejected(self, small_module):
        """A second driver of an instance input or a primary output is
        rejected by every consumer of the design, not silently maxed."""
        module, _unused = small_module
        design = build_multiplier_design(module)
        outputs = module.model.outputs
        design.connect("m0_0/%s" % outputs[-1], "m0_1/A0")
        design.connect("m1_1/%s" % outputs[1], "PO_m1_1_%s" % outputs[0])
        for consumer in (build_design_graph, DesignTimer, flatten_design):
            with pytest.raises(HierarchyError, match="multiple drivers") as info:
                consumer(design)
            assert "'m0_1/A0'" in str(info.value)
            assert "'PO_m1_1_%s'" % outputs[0] in str(info.value)


class TestAnalysis:
    def test_result_moments_are_positive(self, quad_design):
        result = analyze_hierarchical_design(quad_design)
        assert result.mean > 0.0
        assert result.std > 0.0
        assert result.mode is CorrelationMode.REPLACEMENT
        assert result.analysis_seconds > 0.0
        assert set(result.output_arrivals) == set(quad_design.primary_outputs)

    def test_cdf_and_quantiles(self, quad_design):
        result = analyze_hierarchical_design(quad_design)
        grid = np.linspace(result.mean - 4 * result.std, result.mean + 4 * result.std, 50)
        cdf = result.cdf(grid)
        assert cdf[0] < 0.01 and cdf[-1] > 0.99
        assert np.all(np.diff(cdf) >= -1e-12)
        assert result.quantile(0.5) == pytest.approx(result.mean, rel=1e-6)

    def test_global_only_has_smaller_sigma(self, quad_design):
        """Ignoring local correlation between modules shrinks the spread —
        the central observation of the paper's Fig. 7."""
        proposed = analyze_hierarchical_design(quad_design, CorrelationMode.REPLACEMENT)
        global_only = analyze_hierarchical_design(quad_design, CorrelationMode.GLOBAL_ONLY)
        assert global_only.std < proposed.std

    def test_proposed_matches_flattened_monte_carlo(self, quad_design, small_module):
        _unused, config = small_module
        proposed = analyze_hierarchical_design(quad_design, CorrelationMode.REPLACEMENT)
        reference = monte_carlo_hierarchical(
            quad_design, num_samples=config.monte_carlo_samples, seed=1
        )
        assert proposed.mean == pytest.approx(reference.mean, rel=0.05)
        assert proposed.std == pytest.approx(reference.std, rel=0.30)

    def test_proposed_closer_to_reference_than_global_only(self, quad_design, small_module):
        _unused, config = small_module
        proposed = analyze_hierarchical_design(quad_design, CorrelationMode.REPLACEMENT)
        global_only = analyze_hierarchical_design(quad_design, CorrelationMode.GLOBAL_ONLY)
        reference = monte_carlo_hierarchical(
            quad_design, num_samples=config.monte_carlo_samples, seed=2
        )
        assert abs(proposed.std - reference.std) < abs(global_only.std - reference.std)
