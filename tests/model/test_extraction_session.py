"""Tests of the incremental extraction pipeline (ExtractionSession).

The session unifies the three formerly independent scratch computations —
all-pairs analysis, edge criticalities and graph reduction — behind one
journal-driven cache.  The assertions here pin the contract down: threshold
sweeps and post-ECO re-extractions through the session must produce models
*identical* to independent from-scratch extractions (the acceptance
criterion of the incremental-extraction refactor), on the ISCAS c17
circuit, a generated 4x4 array multiplier and the c432 surrogate.
"""

import random

import pytest

from repro.core.canonical import CanonicalForm
from repro.errors import ModelExtractionError
from repro.model.criticality import compute_edge_criticalities
from repro.model.extraction import (
    ExtractionSession,
    extract_timing_model,
    sweep_thresholds,
)
from repro.timing.allpairs import AllPairsTiming
from repro.timing.graph import TimingGraph

SWEEP_THRESHOLDS = (0.01, 0.05, 0.1)


@pytest.fixture
def edit_module(parity_module):
    graph, variation = parity_module
    return graph.copy(), variation


def _assert_models_identical(warm, cold, what: str):
    """Structural identity of two extracted models (delays at 1e-9)."""
    warm_graph, cold_graph = warm.graph, cold.graph
    assert set(warm_graph.vertices) == set(cold_graph.vertices), what
    assert warm_graph.inputs == cold_graph.inputs, what
    assert warm_graph.outputs == cold_graph.outputs, what
    def _sorted_edges(graph):
        return sorted(
            ((edge.source, edge.sink, edge.delay) for edge in graph.edges),
            key=lambda item: (item[0], item[1]),
        )

    warm_edges = _sorted_edges(warm_graph)
    cold_edges = _sorted_edges(cold_graph)
    assert len(warm_edges) == len(cold_edges), what
    for (ws, wt, wd), (cs, ct, cd) in zip(warm_edges, cold_edges):
        assert ws == cs and wt == ct, what
        assert wd.is_close(cd, rtol=1e-9, atol=1e-9), (what, ws, wt)
    # extraction_seconds differs between the runs but is excluded from
    # ExtractionStats equality, so the full stats must compare equal.
    assert warm.stats == cold.stats, what


class TestThresholdSweep:
    def test_sweep_matches_independent_extractions(self, edit_module):
        """The satellite acceptance check: delta in {0.01, 0.05, 0.1}."""
        graph, variation = edit_module
        session = ExtractionSession(graph, variation)
        for threshold in SWEEP_THRESHOLDS:
            warm = session.extract(threshold)
            cold = extract_timing_model(graph, variation, threshold)
            _assert_models_identical(warm, cold, "delta=%s" % threshold)

    def test_sweep_thresholds_entry_point(self, edit_module):
        graph, variation = edit_module
        models = sweep_thresholds(graph, variation, SWEEP_THRESHOLDS)
        assert [model.stats.threshold for model in models] == list(SWEEP_THRESHOLDS)
        for threshold, model in zip(SWEEP_THRESHOLDS, models):
            cold = extract_timing_model(graph, variation, threshold)
            _assert_models_identical(model, cold, "entry delta=%s" % threshold)

    def test_extract_timing_model_accepts_session(self, edit_module):
        graph, variation = edit_module
        session = ExtractionSession(graph, variation)
        warm = extract_timing_model(graph, variation, 0.05, session=session)
        cold = extract_timing_model(graph, variation, 0.05)
        _assert_models_identical(warm, cold, "session=")


class TestPostEcoReextraction:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_randomized_bursts_match_from_scratch(
        self, edit_module, random_graph_edit, seed
    ):
        graph, variation = edit_module
        session = ExtractionSession(graph, variation)
        session.extract(0.05)  # warm start
        rng = random.Random(seed)
        for burst in range(3):
            for _unused in range(5):
                random_graph_edit(graph, rng)
            # Criticalities recomputed on the refreshed tensors must match
            # a recomputation on a cold analysis ...
            fresh = compute_edge_criticalities(graph)
            warm = session.criticalities
            assert set(warm.max_criticality) == set(fresh.max_criticality)
            for edge_id, value in fresh.max_criticality.items():
                assert warm.max_criticality[edge_id] == pytest.approx(
                    value, abs=1e-9
                ), (seed, burst, edge_id)
            # ... and so must the extracted model.
            _assert_models_identical(
                session.extract(0.05),
                extract_timing_model(graph, variation, 0.05),
                "burst %d" % burst,
            )

    def test_refresh_made_elsewhere_is_not_missed(self, edit_module):
        """A refresh of the shared all-pairs session by another caller still
        moves the session's criticalities (its serial check sees it)."""
        graph, variation = edit_module
        session = ExtractionSession(graph, variation)
        edge = graph.edges[len(graph.edges) // 2]
        graph.replace_edge_delay(edge, edge.delay.scale(1.3))
        assert session.allpairs.refresh().mode == "incremental"
        fresh = compute_edge_criticalities(graph)
        warm = session.criticalities
        assert warm.max_criticality.keys() == fresh.max_criticality.keys()
        for edge_id, value in fresh.max_criticality.items():
            assert abs(warm.max_criticality[edge_id] - value) <= 1e-9, edge_id

    def test_original_graph_untouched_by_session_extraction(self, edit_module):
        graph, variation = edit_module
        session = ExtractionSession(graph, variation)
        edges_before = graph.num_edges
        revision_before_extract = graph.revision
        session.extract(0.05)
        assert graph.num_edges == edges_before
        assert graph.revision == revision_before_extract


class TestValidation:
    def test_session_rejects_foreign_graph(self, edit_module):
        graph, variation = edit_module
        session = ExtractionSession(graph, variation)
        other = graph.copy()
        with pytest.raises(ModelExtractionError):
            extract_timing_model(other, variation, 0.05, session=session)
        with pytest.raises(ModelExtractionError):
            sweep_thresholds(other, variation, [0.05], session=session)

    def test_session_rejects_foreign_variation(self, edit_module):
        from repro.variation.model import VariationModel

        graph, variation = edit_module
        session = ExtractionSession(graph, variation)
        # Same geometry (and therefore the same local dimension), different
        # variation model object: the session's cached tensors were built
        # for the original characterization and must not be reused.
        recharacterized = VariationModel(
            variation.partition, variation.correlation,
            variation.sigma_fraction, variation.random_variance_share,
        )
        with pytest.raises(ModelExtractionError, match="variation"):
            extract_timing_model(graph, recharacterized, 0.05, session=session)
        with pytest.raises(ModelExtractionError, match="variation"):
            sweep_thresholds(graph, recharacterized, [0.05], session=session)

    def test_session_rejects_analysis_override(self, edit_module):
        graph, variation = edit_module
        session = ExtractionSession(graph, variation)
        with pytest.raises(ModelExtractionError):
            extract_timing_model(
                graph, variation, 0.05,
                criticalities=session.criticalities, session=session,
            )

    def test_session_requires_io(self):
        graph = TimingGraph("bare", 0)
        graph.add_edge("a", "b", CanonicalForm(1.0, 0.0, None, 0.0))
        from repro.variation.grid import Die, GridPartition
        from repro.variation.model import VariationModel

        variation = VariationModel(
            GridPartition.regular(Die(10.0, 10.0), 10.0)
        )
        with pytest.raises(ModelExtractionError):
            ExtractionSession(graph, variation)

    def test_threshold_range(self, edit_module):
        graph, variation = edit_module
        session = ExtractionSession(graph, variation)
        with pytest.raises(ModelExtractionError):
            session.extract(1.0)
        with pytest.raises(ModelExtractionError):
            session.extract(-0.1)


class TestReferenceCriticalities:
    """The session extracts the model of the scalar reference maxima."""

    def test_session_extracts_the_reference_model(
        self, edit_module, criticality_reference
    ):
        graph, variation = edit_module
        session = ExtractionSession(graph, variation)
        reference = criticality_reference(graph, session.analysis)
        for edge_id, value in reference.max_criticality.items():
            assert abs(session.criticalities.max_criticality[edge_id] - value) <= 1e-9
        reference_model = extract_timing_model(
            graph, variation, 0.05, criticalities=reference
        )
        _assert_models_identical(session.extract(0.05), reference_model, "reference")

    def test_refreshed_session_matches_the_reference(
        self, edit_module, criticality_reference
    ):
        graph, variation = edit_module
        session = ExtractionSession(graph, variation)
        session.extract(0.05)  # warm start
        edge = graph.edges[len(graph.edges) // 2]
        graph.replace_edge_delay(edge, edge.delay.scale(1.15))
        refreshed = session.criticalities
        # The reference runs on a cold analysis of the edited graph, so it
        # shares nothing with the session's refreshed tensors.
        reference = criticality_reference(graph, AllPairsTiming.analyze(graph))
        assert refreshed.max_criticality.keys() == reference.max_criticality.keys()
        for edge_id, value in reference.max_criticality.items():
            assert abs(refreshed.max_criticality[edge_id] - value) <= 1e-9, edge_id
        reference_model = extract_timing_model(
            graph, variation, 0.05, criticalities=reference
        )
        _assert_models_identical(session.extract(0.05), reference_model, "refreshed")
