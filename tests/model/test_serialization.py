"""Tests of timing-model JSON serialization."""

import json

import numpy as np
import pytest

from repro.errors import ModelExtractionError
from repro.model.criticality import compute_edge_criticalities
from repro.model.extraction import ExtractionSession, extract_timing_model
from repro.model.serialization import (
    criticality_from_dict,
    criticality_to_dict,
    load_criticality,
    load_timing_model,
    save_criticality,
    save_timing_model,
    timing_model_from_dict,
    timing_model_to_dict,
)
from repro.timing.allpairs import AllPairsSession


@pytest.fixture
def model(random_graph_and_variation):
    graph, variation = random_graph_and_variation
    return extract_timing_model(graph, variation, threshold=0.05)


class TestRoundTrip:
    def test_dict_roundtrip_preserves_structure(self, model):
        rebuilt = timing_model_from_dict(timing_model_to_dict(model))
        assert rebuilt.name == model.name
        assert rebuilt.inputs == model.inputs
        assert rebuilt.outputs == model.outputs
        assert rebuilt.graph.num_edges == model.graph.num_edges
        assert rebuilt.graph.num_vertices == model.graph.num_vertices
        assert rebuilt.stats == model.stats

    def test_dict_roundtrip_preserves_delays(self, model):
        rebuilt = timing_model_from_dict(timing_model_to_dict(model))
        for original, copy in zip(model.graph.edges, rebuilt.graph.edges):
            assert copy.source == original.source
            assert copy.sink == original.sink
            assert copy.delay.is_close(original.delay)

    def test_dict_roundtrip_preserves_variation_metadata(self, model):
        rebuilt = timing_model_from_dict(timing_model_to_dict(model))
        assert rebuilt.variation.sigma_fraction == pytest.approx(model.variation.sigma_fraction)
        assert rebuilt.variation.num_grids == model.variation.num_grids
        assert rebuilt.partition.grid_size == pytest.approx(model.partition.grid_size)
        assert rebuilt.correlation.neighbor_correlation == pytest.approx(
            model.correlation.neighbor_correlation
        )
        assert np.allclose(
            rebuilt.variation.local_correlation_matrix,
            model.variation.local_correlation_matrix,
        )

    def test_rebuilt_model_produces_same_delay_matrix(self, model):
        rebuilt = timing_model_from_dict(timing_model_to_dict(model))
        assert np.allclose(
            rebuilt.delay_matrix_means(), model.delay_matrix_means(), equal_nan=True
        )
        assert np.allclose(
            rebuilt.delay_matrix_stds(), model.delay_matrix_stds(), equal_nan=True
        )

    def test_file_roundtrip(self, model, tmp_path):
        path = save_timing_model(model, tmp_path / "model.json")
        assert path.exists()
        # The file is genuine JSON.
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-timing-model"
        rebuilt = load_timing_model(path)
        assert rebuilt.graph.num_edges == model.graph.num_edges


class TestValidation:
    def test_wrong_format_rejected(self, model):
        payload = timing_model_to_dict(model)
        payload["format"] = "something-else"
        with pytest.raises(ModelExtractionError):
            timing_model_from_dict(payload)

    def test_wrong_version_rejected(self, model):
        payload = timing_model_to_dict(model)
        payload["version"] = 999
        with pytest.raises(ModelExtractionError):
            timing_model_from_dict(payload)

    def test_missing_format_rejected(self, model):
        payload = timing_model_to_dict(model)
        del payload["format"]
        with pytest.raises(ModelExtractionError, match="format"):
            timing_model_from_dict(payload)

    def test_missing_version_rejected(self, model):
        payload = timing_model_to_dict(model)
        del payload["version"]
        with pytest.raises(ModelExtractionError, match="version"):
            timing_model_from_dict(payload)

    @pytest.mark.parametrize("version", ["2", 2.0, True, None])
    def test_non_integer_version_rejected(self, model, version):
        payload = timing_model_to_dict(model)
        payload["version"] = version
        with pytest.raises(ModelExtractionError, match="integer"):
            timing_model_from_dict(payload)

    def test_non_object_payload_rejected(self):
        with pytest.raises(ModelExtractionError, match="object"):
            timing_model_from_dict(["not", "a", "model"])

    def test_truncated_canonical_form_rejected(self, model):
        payload = timing_model_to_dict(model)
        payload["graph"]["edges"][0]["delay"] = [1.0]
        with pytest.raises(ModelExtractionError):
            timing_model_from_dict(payload)

    def test_oversized_local_vector_rejected(self, model):
        # More locals than the model's declared space is corruption, not
        # the padding case shorter vectors fall under.
        payload = timing_model_to_dict(model)
        edge = payload["graph"]["edges"][0]
        edge["delay"] = list(edge["delay"]) + [0.5]
        with pytest.raises(ModelExtractionError, match="num_locals"):
            timing_model_from_dict(payload)


class TestZeroLocalEncoding:
    """A length-3 delay list is the zero-local form, not a truncation."""

    def test_length3_delay_loads_as_zero_local(self, model):
        payload = timing_model_to_dict(model)
        payload["graph"]["edges"][0]["delay"] = payload["graph"]["edges"][0][
            "delay"
        ][:3]
        rebuilt = timing_model_from_dict(payload)
        assert rebuilt.graph.edges[0].delay.num_locals == 0

    def test_zero_local_model_round_trips(self, model):
        payload = timing_model_to_dict(model)
        payload["graph"]["num_locals"] = 0
        for edge in payload["graph"]["edges"]:
            edge["delay"] = edge["delay"][:3]
        first = timing_model_from_dict(payload)
        assert first.graph.num_locals == 0
        again = timing_model_from_dict(timing_model_to_dict(first))
        assert again.graph.num_locals == 0
        for a, b in zip(first.graph.edges, again.graph.edges):
            assert b.delay == a.delay
            assert b.delay.num_locals == 0


class TestTimingStatsExcluded:
    """Wall-clock timings are measurement noise, not model content."""

    def test_payload_has_no_wall_clock_timing(self, model):
        payload = timing_model_to_dict(model)
        assert "extraction_seconds" not in payload["stats"]

    def test_payloads_are_stable_across_repeated_extraction(
        self, random_graph_and_variation
    ):
        graph, variation = random_graph_and_variation
        first = extract_timing_model(graph, variation, threshold=0.05)
        second = extract_timing_model(graph, variation, threshold=0.05)
        assert first.stats.extraction_seconds != second.stats.extraction_seconds
        # ... yet the stats compare equal and the payloads are identical.
        assert first.stats == second.stats
        assert json.dumps(timing_model_to_dict(first)) == json.dumps(
            timing_model_to_dict(second)
        )

    def test_roundtrip_stats_compare_equal(self, model):
        assert model.stats.extraction_seconds > 0.0
        rebuilt = timing_model_from_dict(timing_model_to_dict(model))
        assert rebuilt.stats.extraction_seconds == 0.0
        assert rebuilt.stats == model.stats

    def test_legacy_payload_with_timing_still_loads(self, model):
        payload = timing_model_to_dict(model)
        payload["stats"]["extraction_seconds"] = 12.5  # version-1 era field
        rebuilt = timing_model_from_dict(payload)
        assert rebuilt.stats.extraction_seconds == 12.5
        assert rebuilt.stats == model.stats


class TestCriticalityRoundTrip:
    """Criticality results (with their argmax bookkeeping) survive JSON."""

    @pytest.fixture
    def criticalities(self, random_graph_and_variation):
        graph, _unused = random_graph_and_variation
        return compute_edge_criticalities(graph)

    def test_dict_roundtrip_is_exact(self, criticalities):
        rebuilt = criticality_from_dict(criticality_to_dict(criticalities))
        # json round-trips doubles through repr, so values are bit-exact.
        assert rebuilt.max_criticality == criticalities.max_criticality
        assert rebuilt.argmax_pairs == criticalities.argmax_pairs
        assert rebuilt == criticalities

    def test_file_roundtrip(self, criticalities, tmp_path):
        path = save_criticality(criticalities, tmp_path / "criticality.json")
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-criticality"
        rebuilt = load_criticality(path)
        assert rebuilt.max_criticality == criticalities.max_criticality
        assert rebuilt.argmax_pairs == criticalities.argmax_pairs

    def test_legacy_payload_without_argmax_loads(self, criticalities):
        payload = criticality_to_dict(criticalities)
        del payload["argmax_pairs"]  # pre-argmax era file
        rebuilt = criticality_from_dict(payload)
        assert rebuilt.max_criticality == criticalities.max_criticality
        assert rebuilt.argmax_pairs is None

    def test_legacy_load_still_seeds_a_session(self, random_graph_and_variation):
        # A legacy result (argmax_pairs=None) is still a usable session
        # seed: it stands until the tensors move, then the refresh replaces
        # it with a batched recompute.
        graph, variation = random_graph_and_variation
        allpairs = AllPairsSession(graph)
        payload = criticality_to_dict(
            compute_edge_criticalities(graph, allpairs.state)
        )
        del payload["argmax_pairs"]
        session = ExtractionSession.from_snapshot(
            graph, variation, allpairs, criticality_from_dict(payload),
            allpairs.serial,
        )
        assert session.criticalities.argmax_pairs is None
        edge = graph.edges[len(graph.edges) // 2]
        graph.replace_edge_delay(edge, edge.delay.scale(1.1))
        refreshed = session.criticalities
        reference = compute_edge_criticalities(graph)
        assert refreshed.argmax_pairs == reference.argmax_pairs
        assert refreshed.max_criticality.keys() == reference.max_criticality.keys()
        for edge_id, value in reference.max_criticality.items():
            assert abs(refreshed.max_criticality[edge_id] - value) <= 1e-9

    def test_wrong_format_rejected(self, criticalities):
        payload = criticality_to_dict(criticalities)
        payload["format"] = "something-else"
        with pytest.raises(ModelExtractionError):
            criticality_from_dict(payload)

    def test_wrong_version_rejected(self, criticalities):
        payload = criticality_to_dict(criticalities)
        payload["version"] = 999
        with pytest.raises(ModelExtractionError):
            criticality_from_dict(payload)

    def test_mismatched_argmax_cover_rejected(self, criticalities):
        payload = criticality_to_dict(criticalities)
        first_key = next(iter(payload["argmax_pairs"]))
        del payload["argmax_pairs"][first_key]
        with pytest.raises(ModelExtractionError):
            criticality_from_dict(payload)
