"""Tests of the Table I experiment driver."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.table1 import (
    TABLE1_CIRCUITS,
    characterize_circuit,
    run_table1,
)
from repro.netlist.iscas85 import ISCAS85_SPECS


@pytest.fixture(scope="module")
def small_result():
    config = ExperimentConfig(monte_carlo_samples=1200)
    return run_table1(circuits=["c432", "c499"], config=config)


class TestCharacterization:
    def test_characterized_graph_matches_spec(self):
        config = ExperimentConfig()
        circuit = characterize_circuit("c432", config)
        spec = ISCAS85_SPECS["c432"]
        assert circuit.graph.num_edges == spec.timing_graph_edges
        assert circuit.graph.num_vertices == spec.timing_graph_vertices
        assert circuit.variation.num_grids >= 1


class TestRunTable1:
    def test_circuit_lists(self):
        assert len(TABLE1_CIRCUITS) == 10

    def test_rows_reproduce_table_columns(self, small_result):
        assert [row.circuit for row in small_result.rows] == ["c432", "c499"]
        for row in small_result.rows:
            spec = ISCAS85_SPECS[row.circuit]
            assert row.original_edges == spec.timing_graph_edges
            assert row.original_vertices == spec.timing_graph_vertices
            assert row.model_edges < row.original_edges
            assert row.model_vertices < row.original_vertices
            assert 0.0 < row.edge_ratio < 1.0
            assert 0.0 < row.vertex_ratio < 1.0
            assert row.extraction_seconds > 0.0
            assert row.reference == "monte-carlo"

    def test_compression_is_substantial(self, small_result):
        """Headline claim: models are far smaller than the original graphs."""
        assert small_result.average_edge_ratio < 0.5
        assert small_result.average_vertex_ratio < 0.6

    def test_accuracy_within_a_few_percent(self, small_result):
        """Shape of Table I: mean errors ~1 %, sigma errors a few percent."""
        assert small_result.average_mean_error < 0.05
        assert small_result.average_std_error < 0.12

    def test_render_contains_all_rows(self, small_result):
        text = small_result.render()
        assert "c432" in text and "c499" in text and "average" in text
        assert "pe" in text and "verr" in text

    def test_accuracy_validation_can_be_skipped(self):
        config = ExperimentConfig(monte_carlo_samples=100)
        result = run_table1(circuits=["c432"], config=config, validate_accuracy=False)
        assert result.rows[0].reference == "skipped"
        assert result.rows[0].mean_error == 0.0
