"""Tests of the TimingModel container."""

import numpy as np
import pytest

from repro.experiments.table1 import characterize_circuit
from repro.model.extraction import extract_timing_model
from repro.timing.allpairs import AllPairsTiming


@pytest.fixture
def model(random_graph_and_variation):
    graph, variation = random_graph_and_variation
    return extract_timing_model(graph, variation, threshold=0.05)


class TestTimingModel:
    def test_metadata_exposed(self, model, random_graph_and_variation):
        _unused, variation = random_graph_and_variation
        assert model.variation is variation
        assert model.partition is variation.partition
        assert model.pca is variation.pca
        assert model.correlation is variation.correlation
        assert model.die is variation.partition.die
        assert model.num_locals == variation.num_locals

    def test_delay_matrices_shapes(self, model):
        means = model.delay_matrix_means()
        stds = model.delay_matrix_stds()
        assert means.shape == (len(model.inputs), len(model.outputs))
        assert stds.shape == means.shape
        finite = np.isfinite(means)
        assert finite.any()
        assert np.all(means[finite] > 0.0)
        assert np.all(stds[finite] > 0.0)

    def test_analysis_is_cached(self, model):
        assert model.analysis() is model.analysis()

    def test_analysis_follows_edits_of_the_model_graph(self, library):
        circuit = characterize_circuit("c432", library=library)
        model = extract_timing_model(circuit.graph, circuit.variation, threshold=0.05)
        before = model.delay_matrix_means()
        for edge in model.graph.edges[:40]:
            model.graph.replace_edge_delay(edge, edge.delay.scale(2.0))
        fresh = AllPairsTiming.analyze(model.graph)
        assert not np.array_equal(fresh.matrix_means(), before, equal_nan=True)
        assert np.array_equal(model.delay_matrix_means(), fresh.matrix_means(), equal_nan=True)
        assert np.array_equal(model.delay_matrix_stds(), fresh.matrix_std(), equal_nan=True)
        assert model.analysis() is model.analysis()

    def test_ratios(self, model):
        assert model.stats.edge_ratio == pytest.approx(
            model.stats.model_edges / model.stats.original_edges
        )
        assert model.stats.vertex_ratio == pytest.approx(
            model.stats.model_vertices / model.stats.original_vertices
        )

    def test_instantiate_prefixes_vertices(self, model):
        instance = model.instantiate("u0/")
        assert instance.num_edges == model.graph.num_edges
        assert instance.num_vertices == model.graph.num_vertices
        assert all(vertex.startswith("u0/") for vertex in instance.vertices)
        assert set(instance.inputs) == {"u0/%s" % name for name in model.inputs}

    def test_instantiate_shares_delays(self, model):
        instance = model.instantiate("u1/")
        for original, copy in zip(model.graph.edges, instance.edges):
            assert copy.delay is original.delay

    def test_repr(self, model):
        text = repr(model)
        assert "edges=" in text and "vertices=" in text
