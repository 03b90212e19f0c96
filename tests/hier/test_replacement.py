"""Tests of the independent-random-variable replacement (eq. 19)."""

import numpy as np
import pytest

from repro.core.correlation import covariance_matrix
from repro.experiments.config import ExperimentConfig
from repro.experiments.figure7 import build_multiplier_design, build_multiplier_module
from repro.hier.analysis import CorrelationMode, build_design_graph
from repro.hier.design import HierarchicalDesign, ModuleInstance
from repro.hier.grids import build_design_grids
from repro.hier.replacement import (
    design_pca,
    replacement_matrix,
    subblock_consistency_error,
)
from repro.model.extraction import extract_timing_model
from repro.variation.grid import Die


@pytest.fixture
def module_model(random_graph_and_variation):
    graph, variation = random_graph_and_variation
    return extract_timing_model(graph, variation, threshold=0.05)


@pytest.fixture
def abutted_design(module_model):
    die = module_model.die
    design = HierarchicalDesign("abutted", Die(2 * die.width, die.height))
    design.add_instance(ModuleInstance("a", module_model, 0.0, 0.0))
    design.add_instance(ModuleInstance("b", module_model, die.width, 0.0))
    return design


@pytest.fixture(scope="module")
def fine_design():
    """The four-instance mult4 design at 25 grids, so 25 locals, per instance."""
    config = ExperimentConfig(max_cells_per_grid=4)
    return build_multiplier_design(build_multiplier_module(bits=4, config=config))


def instance_delays(graph, instance):
    """The design-graph delays of ``instance``'s model edges, in model order.

    They are the edges with both ends on the instance (design connections
    join two instances or a primary port to an instance).
    """
    prefix = instance.prefix
    edges = [
        edge for edge in graph.edges
        if edge.source.startswith(prefix) and edge.sink.startswith(prefix)
    ]
    assert [(edge.source, edge.sink) for edge in edges] == [
        (prefix + edge.source, prefix + edge.sink)
        for edge in instance.model.graph.edges
    ]
    return [edge.delay for edge in edges]


class TestDesignPca:
    def test_subblock_matches_module_correlation(self, abutted_design, module_model):
        grids = build_design_grids(abutted_design)
        for instance in abutted_design.instances:
            error = subblock_consistency_error(instance, grids, module_model.correlation)
            assert error < 1e-6

    def test_design_pca_reconstructs_design_correlation(self, abutted_design, module_model):
        grids = build_design_grids(abutted_design)
        pca = design_pca(grids, module_model.correlation)
        reconstructed = pca.reconstruct_covariance()
        assert np.allclose(np.diag(reconstructed), 1.0, atol=1e-6)


class TestReplacementMatrix:
    def test_shape(self, abutted_design, module_model):
        grids = build_design_grids(abutted_design)
        pca = design_pca(grids, module_model.correlation)
        matrix = replacement_matrix(abutted_design.instance("a"), grids, pca)
        assert matrix.shape == (module_model.pca.num_components, pca.num_components)

    def test_replacement_preserves_module_internal_covariance(self, fine_design):
        """Eq. 18/19: rewriting the variables must not change the covariance
        structure *within* a module."""
        graph, _grids, _pca = build_design_graph(fine_design, CorrelationMode.REPLACEMENT)
        instance = fine_design.instance("m0_0")
        original_delays = [edge.delay for edge in instance.model.graph.edges][:12]
        remapped_delays = instance_delays(graph, instance)[:12]
        original_cov = covariance_matrix(original_delays)
        remapped_cov = covariance_matrix(remapped_delays)
        assert np.allclose(original_cov, remapped_cov, rtol=1e-3, atol=1e-6)

    def test_replacement_creates_cross_module_correlation(self, fine_design):
        """Edges of abutted instances must become correlated through the
        shared design-level variables (the whole point of Section V)."""
        graph, _grids, _pca = build_design_graph(fine_design, CorrelationMode.REPLACEMENT)
        edge_a = instance_delays(graph, fine_design.instance("m0_0"))[0]
        edge_b = instance_delays(graph, fine_design.instance("m0_1"))[0]
        correlation = edge_a.correlation(edge_b)
        # Neighbouring abutted modules: local correlation must be clearly
        # positive beyond the global floor contribution alone.
        global_only = (edge_a.global_coeff * edge_b.global_coeff) / (edge_a.std * edge_b.std)
        assert correlation > global_only + 0.01

    def test_remap_prefixes_vertices(self, fine_design):
        graph, _grids, pca = build_design_graph(fine_design, CorrelationMode.REPLACEMENT)
        for instance in fine_design.instances:
            model = instance.model
            assert len(instance_delays(graph, instance)) == model.graph.num_edges
            for vertex in model.graph.vertices:
                assert graph.has_vertex("%s/%s" % (instance.name, vertex))
        assert graph.num_locals == pca.num_components


class TestBlockDiagonal:
    """``GLOBAL_ONLY``: each instance's locals sit in a private block."""

    def test_block_diagonal_keeps_internal_correlation(self, fine_design):
        graph, _grids, _pca = build_design_graph(fine_design, CorrelationMode.GLOBAL_ONLY)
        offset = 0
        for instance in fine_design.instances:
            k = instance.model.num_locals
            assert k >= 2
            outside = np.ones(graph.num_locals, dtype=bool)
            outside[offset : offset + k] = False
            originals = [edge.delay for edge in instance.model.graph.edges]
            for original, copied in zip(originals, instance_delays(graph, instance)):
                assert np.array_equal(
                    copied.local_coeffs[offset : offset + k], original.local_coeffs
                )
                assert np.array_equal(
                    copied.local_coeffs[outside], np.zeros(graph.num_locals - k)
                )
                assert copied.nominal == original.nominal
                assert copied.variance == pytest.approx(original.variance)
            offset += k
        assert graph.num_locals == offset

    def test_block_diagonal_removes_cross_module_local_correlation(self, fine_design):
        graph, _grids, _pca = build_design_graph(fine_design, CorrelationMode.GLOBAL_ONLY)
        edge_a = instance_delays(graph, fine_design.instance("m0_0"))[0]
        edge_b = instance_delays(graph, fine_design.instance("m0_1"))[0]
        # Only the shared global variable contributes.
        expected = edge_a.global_coeff * edge_b.global_coeff
        assert edge_a.covariance(edge_b) == pytest.approx(expected)
