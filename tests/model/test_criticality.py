"""Tests of the edge-criticality computation."""

import numpy as np
import pytest

from oracles import edge_criticality_matrix
from repro.core.canonical import CanonicalForm
from repro.errors import ModelExtractionError, TimingGraphError
from repro.model.criticality import (
    CriticalityResult,
    compute_edge_criticalities,
    edge_criticality_batch,
)
from repro.model.extraction import extract_timing_model
from repro.timing.allpairs import AllPairsSession, AllPairsTiming
from repro.timing.graph import TimingGraph


def _delay(value: float) -> CanonicalForm:
    return CanonicalForm(value, 0.08 * value, [0.04 * value], 0.04 * value)


@pytest.fixture
def funnel() -> TimingGraph:
    """Two inputs funneling through one vertex, then one output."""
    graph = TimingGraph("funnel", 1)
    graph.mark_input("a")
    graph.mark_input("b")
    graph.mark_output("z")
    graph.add_edge("a", "m", _delay(10.0))
    graph.add_edge("b", "m", _delay(12.0))
    graph.add_edge("m", "z", _delay(5.0))
    return graph


@pytest.fixture
def skewed_diamond() -> TimingGraph:
    """One input, one output, one clearly dominant branch."""
    graph = TimingGraph("skewed", 1)
    graph.mark_input("a")
    graph.mark_output("z")
    graph.add_edge("a", "slow", _delay(100.0))
    graph.add_edge("slow", "z", _delay(100.0))
    graph.add_edge("a", "fast", _delay(1.0))
    graph.add_edge("fast", "z", _delay(1.0))
    return graph


class TestEdgeCriticalityMatrix:
    def test_funnel_edges_are_fully_critical(self, funnel):
        analysis = AllPairsTiming.analyze(funnel)
        matrix = {
            (edge.source, edge.sink): edge_criticality_matrix(analysis, edge)
            for edge in funnel.edges
        }
        # Edge a->m is the only path from a; it has criticality 1 for (a, z)
        # and 0 for (b, z).
        assert matrix[("a", "m")][0, 0] == pytest.approx(1.0)
        assert matrix[("a", "m")][1, 0] == pytest.approx(0.0)
        # The funnel edge m->z is on every path of every pair.
        assert np.allclose(matrix[("m", "z")], 1.0)

    def test_dominant_branch_near_one(self, skewed_diamond):
        analysis = AllPairsTiming.analyze(skewed_diamond)
        result = compute_edge_criticalities(skewed_diamond, analysis)
        by_pair = {
            (edge.source, edge.sink): result.max_criticality[edge.edge_id]
            for edge in skewed_diamond.edges
        }
        assert by_pair[("a", "slow")] > 0.99
        assert by_pair[("slow", "z")] > 0.99
        assert by_pair[("a", "fast")] < 0.01
        assert by_pair[("fast", "z")] < 0.01

    def test_balanced_branches_split_criticality(self):
        graph = TimingGraph("balanced", 1)
        graph.mark_input("a")
        graph.mark_output("z")
        graph.add_edge("a", "u", _delay(10.0))
        graph.add_edge("u", "z", _delay(10.0))
        graph.add_edge("a", "v", _delay(10.0))
        graph.add_edge("v", "z", _delay(10.0))
        result = compute_edge_criticalities(graph)
        values = list(result.max_criticality.values())
        assert all(0.3 < value < 0.7 for value in values)

    def test_values_bounded_between_zero_and_one(self, random_graph_and_variation):
        graph, _unused = random_graph_and_variation
        result = compute_edge_criticalities(graph)
        values = result.values()
        assert values.min() >= 0.0
        assert values.max() <= 1.0
        assert len(values) == graph.num_edges


class TestCriticalityResult:
    def test_histogram_covers_unit_interval(self, funnel):
        result = compute_edge_criticalities(funnel)
        counts, edges = result.histogram(bins=10)
        assert counts.sum() == funnel.num_edges
        assert edges[0] == 0.0
        assert edges[-1] == 1.0

    def test_below_threshold_selection(self, skewed_diamond):
        result = compute_edge_criticalities(skewed_diamond)
        removable = result.below(0.05)
        assert len(removable) == 2
        assert all(value < 0.05 for value in removable.values())

    def test_criticality_consistent_with_shared_analysis(self, funnel):
        analysis = AllPairsTiming.analyze(funnel)
        with_analysis = compute_edge_criticalities(funnel, analysis)
        without_analysis = compute_edge_criticalities(funnel)
        assert with_analysis.max_criticality == pytest.approx(without_analysis.max_criticality)

    def test_every_input_output_pair_keeps_a_critical_edge(self, random_graph_and_variation):
        # For every reachable pair at least one fanin edge of the output must
        # have non-trivial criticality — otherwise thresholding could remove
        # every path of that pair.
        graph, _unused = random_graph_and_variation
        analysis = AllPairsTiming.analyze(graph)
        for output in graph.outputs:
            matrices = [
                edge_criticality_matrix(analysis, edge)
                for edge in graph.fanin_edges(output)
            ]
            best = np.max(np.stack(matrices), axis=0)
            j = analysis.outputs.index(output)
            for i in range(len(analysis.inputs)):
                if analysis.matrix_valid[i, j]:
                    assert best[i, j] > 0.2


@pytest.fixture(scope="module")
def c432_module():
    """Pristine ``(graph, variation)`` of the c432 surrogate (copy to edit)."""
    from repro.liberty.library import standard_library
    from repro.netlist.iscas85 import iscas85_surrogate
    from repro.placement.placer import place_netlist
    from repro.timing.builder import build_timing_graph, default_variation_for

    netlist = iscas85_surrogate("c432")
    library = standard_library()
    placement = place_netlist(netlist, library)
    variation = default_variation_for(netlist, placement)
    return build_timing_graph(netlist, library, placement, variation), variation


class TestAnalysisChecks:
    """Regressions: a prebuilt ``analysis=`` that does not describe the graph
    as it is now, or that lacks the dense tensors, raises a typed error
    instead of yielding wrong criticalities or an ``AttributeError``."""

    @pytest.mark.parametrize("edit", ["retime", "remove", "foreign"])
    def test_stale_or_foreign_analysis_raises(self, c432_module, edit):
        pristine, variation = c432_module
        graph = pristine.copy()
        analysis = AllPairsTiming.analyze(graph)
        if edit == "foreign":
            graph = pristine.copy()  # same delays, another graph
        session = AllPairsSession(graph)
        if edit == "retime":
            for edge in graph.edges[:200]:
                graph.replace_edge_delay(edge, edge.delay.scale(1.3))
        elif edit == "remove":
            graph.remove_edge(graph.edges[len(graph.edges) // 2])
        session.refresh()

        with pytest.raises(TimingGraphError) as excinfo:
            compute_edge_criticalities(graph, analysis)
        message = str(excinfo.value)
        assert "analysis=" in message
        if edit == "foreign":
            assert "graph %r" % pristine.name in message
        else:
            assert "revision %d" % analysis.arrays.revision in message
            assert "revision %d" % graph.revision in message
        with pytest.raises(TimingGraphError):
            extract_timing_model(graph, variation, analysis=analysis)
        # The current analysis is accepted and matches the session's.
        fresh = compute_edge_criticalities(graph, AllPairsTiming.analyze(graph))
        refreshed = compute_edge_criticalities(graph, session.state)
        assert fresh.max_criticality == pytest.approx(refreshed.max_criticality, abs=1e-9)

    def test_blocked_analysis_raises_model_extraction_error(
        self, c432_module, monkeypatch
    ):
        pristine, variation = c432_module
        graph = pristine.copy()

        monkeypatch.setenv("REPRO_ALLPAIRS_BUDGET_FLOATS", "1000")
        blocked = AllPairsTiming.analyze(graph)
        assert blocked.engine == "blocked"
        calls = {
            "compute": lambda: compute_edge_criticalities(graph),
            "compute(analysis)": lambda: compute_edge_criticalities(graph, blocked),
            "extract": lambda: extract_timing_model(graph, variation),
            "batch": lambda: edge_criticality_batch(blocked),
        }
        arrays = blocked.arrays
        # The budget gates the (V, O) to-output tensors alone: the arrival
        # tensors are streamed in input blocks.
        footprint = arrays.num_vertices * len(graph.outputs) * (arrays.num_corr + 2)
        for name, call in calls.items():
            with pytest.raises(ModelExtractionError) as excinfo:
                call()
            message = str(excinfo.value)
            assert "%d floats" % footprint in message, name
            assert "1000 floats" in message, name
