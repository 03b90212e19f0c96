"""Property-based parity suite of the batched criticality kernel.

The edge-chunked kernel of :mod:`repro.model.criticality` shares its
floating-point expressions with the one-edge-at-a-time scalar reference
:func:`edge_criticality_matrix`, so on *any* module every edge's maximum
must agree with the maximum of its reference matrix (the
``criticality_reference`` fixture) to 1e-9 — asserted here on
hypothesis-randomized layered DAGs, including the degenerate corners the
shared tie rule exists for (zero-variance delays, exactly tied maxima,
single-input/single-output modules), and after randomized retime bursts
driven through the incremental updater.
"""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.canonical import CanonicalForm
from repro.model.criticality import (
    compute_edge_criticalities,
    edge_criticality_batch,
    edge_criticality_matrix,
    edge_criticality_tensor,
    update_edge_criticalities,
)
from repro.timing.allpairs import AllPairsSession, AllPairsTiming
from repro.timing.graph import TimingGraph

PARITY = 1e-9
NUM_LOCALS = 2


def _build_graph(
    seed,
    num_inputs,
    num_outputs,
    num_internal,
    zero_variance=False,
    with_tie=False,
):
    """A random layered DAG with ``num_inputs``/``num_outputs`` designated.

    Every non-input vertex receives 1-3 fanin edges from topologically
    earlier non-output vertices, so each output is reachable while some
    inputs (and internal vertices) may dangle — which exercises the
    validity masking of the kernel and the reference.  ``zero_variance``
    makes every delay deterministic (the all-degenerate corner);
    ``with_tie`` duplicates one edge so a pair maximum is attained
    identically twice.
    """
    rng = np.random.default_rng(seed)
    graph = TimingGraph("prop%d" % seed, NUM_LOCALS)
    inputs = ["i%d" % position for position in range(num_inputs)]
    outputs = ["o%d" % position for position in range(num_outputs)]
    internal = ["v%d" % position for position in range(num_internal)]
    for name in inputs:
        graph.mark_input(name)
    for name in outputs:
        graph.mark_output(name)
    sources = inputs + internal  # outputs stay pure sinks

    def _delay():
        if zero_variance:
            return CanonicalForm(
                float(rng.uniform(1.0, 20.0)), 0.0, [0.0] * NUM_LOCALS, 0.0
            )
        return CanonicalForm(
            float(rng.uniform(1.0, 20.0)),
            float(rng.uniform(0.0, 1.5)),
            [float(value) for value in rng.uniform(-1.0, 1.0, NUM_LOCALS)],
            float(rng.uniform(0.0, 1.5)),
        )

    for position, name in enumerate(internal + outputs):
        limit = num_inputs + min(position, num_internal)
        for _unused in range(int(rng.integers(1, 4))):
            graph.add_edge(sources[int(rng.integers(0, limit))], name, _delay())
    if with_tie:
        edge = graph.edges[int(rng.integers(0, graph.num_edges))]
        graph.add_edge(edge.source, edge.sink, edge.delay)
    return graph


def _assert_results_close(reference, candidate):
    assert reference.max_criticality.keys() == candidate.max_criticality.keys()
    for edge_id, value in reference.max_criticality.items():
        assert abs(value - candidate.max_criticality[edge_id]) <= PARITY, (
            edge_id,
            value,
            candidate.max_criticality[edge_id],
        )


def _assert_argmax_attains(graph, analysis, result):
    """The reported argmax pair evaluates back to the reported maximum."""
    for edge in graph.edges:
        i, j = result.argmax_pairs[edge.edge_id]
        value = result.max_criticality[edge.edge_id]
        if i < 0:
            assert value == 0.0
            continue
        matrix = edge_criticality_matrix(analysis, edge)
        assert abs(matrix[i, j] - value) <= PARITY
        assert value >= matrix.max() - PARITY


class TestRandomizedParity:
    @given(
        seed=st.integers(min_value=0, max_value=10 ** 6),
        num_inputs=st.integers(min_value=1, max_value=4),
        num_outputs=st.integers(min_value=1, max_value=3),
        num_internal=st.integers(min_value=0, max_value=8),
        zero_variance=st.booleans(),
        with_tie=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_scalar(
        self,
        criticality_reference,
        seed,
        num_inputs,
        num_outputs,
        num_internal,
        zero_variance,
        with_tie,
    ):
        graph = _build_graph(
            seed, num_inputs, num_outputs, num_internal, zero_variance, with_tie
        )
        analysis = AllPairsTiming.analyze(graph)
        batch = compute_edge_criticalities(graph, analysis)
        assert batch.engine == "batch"
        _assert_results_close(criticality_reference(graph, analysis), batch)
        _assert_argmax_attains(graph, analysis, batch)

    @given(
        seed=st.integers(min_value=0, max_value=10 ** 6),
        num_inputs=st.integers(min_value=1, max_value=3),
        num_outputs=st.integers(min_value=1, max_value=3),
        num_internal=st.integers(min_value=2, max_value=8),
        zero_variance=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_tensor_rows_match_matrices(
        self, seed, num_inputs, num_outputs, num_internal, zero_variance
    ):
        graph = _build_graph(
            seed, num_inputs, num_outputs, num_internal, zero_variance
        )
        analysis = AllPairsTiming.analyze(graph)
        tensor = edge_criticality_tensor(analysis, graph.edges)
        assert tensor.shape == (
            graph.num_edges,
            analysis.num_inputs,
            analysis.num_outputs,
        )
        for row, edge in enumerate(graph.edges):
            np.testing.assert_allclose(
                tensor[row],
                edge_criticality_matrix(analysis, edge),
                atol=PARITY,
                rtol=0.0,
            )

    @given(
        seed=st.integers(min_value=0, max_value=10 ** 6),
        num_internal=st.integers(min_value=2, max_value=8),
        burst=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10 ** 6),
                st.floats(min_value=0.5, max_value=2.0),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_retime_burst_incremental_parity(
        self, criticality_reference, seed, num_internal, burst
    ):
        graph = _build_graph(seed, 3, 2, num_internal)
        session = AllPairsSession(graph)
        result = compute_edge_criticalities(graph, session.state)
        for edge_pick, factor in burst:
            edge = graph.edges[edge_pick % graph.num_edges]
            graph.replace_edge_delay(edge, edge.delay.scale(factor))
            update = session.refresh()
            result = update_edge_criticalities(
                graph, session.state, result, update
            )
        reference = criticality_reference(graph, AllPairsTiming.analyze(graph))
        _assert_results_close(reference, result)

    @given(seed=st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_single_input_single_output(self, criticality_reference, seed):
        graph = _build_graph(seed, 1, 1, 4)
        analysis = AllPairsTiming.analyze(graph)
        _assert_results_close(
            criticality_reference(graph, analysis),
            compute_edge_criticalities(graph, analysis),
        )


class TestAcceptanceCircuits:
    def test_batch_matches_scalar_on_parity_modules(
        self, parity_module, criticality_reference
    ):
        # The real c17, a 4x4 array multiplier and the c432 surrogate.
        graph = parity_module[0]
        analysis = AllPairsTiming.analyze(graph)
        batch = compute_edge_criticalities(graph, analysis)
        _assert_results_close(criticality_reference(graph, analysis), batch)
        _assert_argmax_attains(graph, analysis, batch)


def _production_and_reference(graph, analysis, reference):
    """The batched result and the reference maxima, in that order."""
    return (
        compute_edge_criticalities(graph, analysis),
        reference(graph, analysis),
    )


class TestDegenerateEdges:
    def test_zero_variance_chain_is_exactly_one(self, criticality_reference):
        """Deterministic delays: the whole chain ties at criticality 1.0."""
        graph = TimingGraph("chain", NUM_LOCALS)
        graph.mark_input("a")
        graph.mark_output("z")
        constant = CanonicalForm(10.0, 0.0, [0.0] * NUM_LOCALS, 0.0)
        graph.add_edge("a", "m", constant)
        graph.add_edge("m", "z", constant)
        analysis = AllPairsTiming.analyze(graph)
        for result in _production_and_reference(
            graph, analysis, criticality_reference
        ):
            assert all(value == 1.0 for value in result.max_criticality.values())

    def test_tied_parallel_paths_both_fully_critical(self, criticality_reference):
        """Two identical deterministic branches: both tie at exactly 1.0."""
        graph = TimingGraph("tied", NUM_LOCALS)
        graph.mark_input("a")
        graph.mark_output("z")
        constant = CanonicalForm(7.0, 0.0, [0.0] * NUM_LOCALS, 0.0)
        for branch in ("u", "v"):
            graph.add_edge("a", branch, constant)
            graph.add_edge(branch, "z", constant)
        analysis = AllPairsTiming.analyze(graph)
        for result in _production_and_reference(
            graph, analysis, criticality_reference
        ):
            assert all(value == 1.0 for value in result.max_criticality.values())

    def test_dangling_edge_has_zero_criticality(self, criticality_reference):
        """An edge on no input-to-output path scores 0, as in the reference."""
        graph = TimingGraph("dangle", NUM_LOCALS)
        graph.mark_input("a")
        graph.mark_output("z")
        form = CanonicalForm(5.0, 0.5, [0.1] * NUM_LOCALS, 0.2)
        graph.add_edge("a", "z", form)
        graph.add_edge("orphan", "leaf", form)  # reaches no output
        analysis = AllPairsTiming.analyze(graph)
        for result in _production_and_reference(
            graph, analysis, criticality_reference
        ):
            dangling = [
                edge.edge_id
                for edge in graph.edges
                if edge.source == "orphan"
            ]
            assert result.max_criticality[dangling[0]] == 0.0
            # The pair space is non-empty, so the argmax is a real (if
            # all-zero) pair — (-1, -1) is reserved for empty pair spaces.
            assert result.argmax_pairs[dangling[0]] != (-1, -1)


class TestChunking:
    def test_chunking_is_invariant(self):
        """Any chunk size yields the same result as one big chunk."""
        graph = _build_graph(11, 3, 3, 10)
        analysis = AllPairsTiming.analyze(graph)
        whole = edge_criticality_batch(analysis)
        for chunk_pairs in (1, 7, 64, 1 << 20):
            chunked = edge_criticality_batch(analysis, chunk_pairs=chunk_pairs)
            assert chunked.max_criticality == whole.max_criticality
            assert chunked.argmax_pairs == whole.argmax_pairs

    def test_nonpositive_chunk_raises(self):
        graph = _build_graph(13, 2, 2, 4)
        analysis = AllPairsTiming.analyze(graph)
        with pytest.raises(ValueError):
            edge_criticality_batch(analysis, chunk_pairs=0)


@pytest.fixture(scope="module", params=["c17", "mult2"])
def small_module(request, library):
    """Real modules under 48 edges, where a scalar pass used to run."""
    if request.param == "c17":
        return request.getfixturevalue("c17_graph")
    from repro.netlist.multiplier import array_multiplier
    from repro.placement.placer import place_netlist
    from repro.timing.builder import build_timing_graph, default_variation_for

    netlist = array_multiplier(2)
    placement = place_netlist(netlist, library)
    variation = default_variation_for(netlist, placement)
    return build_timing_graph(netlist, library, placement, variation)


class TestSmallModules:
    def test_small_module_matches_reference(
        self, small_module, criticality_reference
    ):
        graph = small_module
        assert graph.num_edges < 48
        analysis = AllPairsTiming.analyze(graph)
        batch = compute_edge_criticalities(graph, analysis)
        assert batch.engine == "batch"
        reference = criticality_reference(graph, analysis)
        _assert_results_close(reference, batch)
        _assert_argmax_attains(graph, analysis, batch)
        # Extraction keeps the same edges at the paper's threshold.
        for edge_id, value in reference.max_criticality.items():
            assert (batch.max_criticality[edge_id] < 0.05) == (value < 0.05)

    def test_entry_points_take_no_engine(self):
        from repro.experiments.ablation import run_threshold_sweep
        from repro.model.extraction import ExtractionSession

        for entry in (
            compute_edge_criticalities,
            update_edge_criticalities,
            ExtractionSession,
            ExtractionSession.from_snapshot,
            run_threshold_sweep,
        ):
            parameters = inspect.signature(entry).parameters
            assert "engine" not in parameters, entry
            assert "criticality_engine" not in parameters, entry


@pytest.fixture(scope="module")
def c432_module():
    from repro.liberty.library import standard_library
    from repro.netlist.iscas85 import iscas85_surrogate
    from repro.placement.placer import place_netlist
    from repro.timing.builder import build_timing_graph, default_variation_for

    netlist = iscas85_surrogate("c432")
    library = standard_library()
    placement = place_netlist(netlist, library)
    variation = default_variation_for(netlist, placement)
    return build_timing_graph(netlist, library, placement, variation)


class TestDenseEditSwitch:
    """Regression: a dense mid-graph retime on the reconvergent c432 must
    flip the incremental updater to a batched full recompute and match the
    session-driven from-scratch result bit for bit (the switch *is* a
    from-scratch batched pass over the refreshed tensors)."""

    def _widest_mid_edge(self, graph, analysis):
        arrays = analysis.arrays
        reaching = analysis.arrival_valid.sum(axis=1)
        reached = analysis.to_output_valid.sum(axis=1)
        return max(
            graph.edges,
            key=lambda edge: int(
                reaching[arrays.edge_source[arrays.edge_rows[edge.edge_id]]]
            )
            * int(reached[arrays.edge_sink[arrays.edge_rows[edge.edge_id]]]),
        )

    def test_dense_retime_switches_to_batch_and_stays_exact(self, c432_module):
        graph = c432_module.copy()
        session = AllPairsSession(graph)
        previous = compute_edge_criticalities(graph, session.state)

        edge = self._widest_mid_edge(graph, session.state)
        graph.replace_edge_delay(edge, edge.delay.scale(1.2))
        update = session.refresh()
        assert update.mode == "incremental"

        updated = update_edge_criticalities(
            graph, session.state, previous, update
        )
        assert updated.engine == "batch"  # the auto-switch fired

        reference = compute_edge_criticalities(graph, session.state)
        assert updated.max_criticality == reference.max_criticality
        assert updated.argmax_pairs == reference.argmax_pairs

    def test_sparse_retime_stays_incremental(self, c432_module):
        graph = c432_module.copy()
        session = AllPairsSession(graph)
        previous = compute_edge_criticalities(graph, session.state)

        edge = graph.fanout_edges(graph.inputs[0])[0]
        graph.replace_edge_delay(edge, edge.delay.scale(1.01))
        update = session.refresh()
        updated = update_edge_criticalities(
            graph, session.state, previous, update
        )
        assert updated.engine == "incremental"

        reference = compute_edge_criticalities(graph, session.state)
        _assert_results_close(reference, updated)


class TestEmptyPairSpace:
    """Regression: no primary I/O pairs must yield an empty result, not a
    numpy raise (the all-zero result keeps histogram/threshold consumers
    total on degenerate modules)."""

    def _edge_only_graph(self):
        graph = TimingGraph("noio", NUM_LOCALS)
        graph.add_edge(
            "a", "b", CanonicalForm(4.0, 0.2, [0.1] * NUM_LOCALS, 0.1)
        )
        return graph

    def test_no_inputs_or_outputs_yields_zeroes(self):
        graph = self._edge_only_graph()
        result = compute_edge_criticalities(graph)
        assert result.max_criticality == {
            edge.edge_id: 0.0 for edge in graph.edges
        }
        assert all(pair == (-1, -1) for pair in result.argmax_pairs.values())

    def test_no_outputs_yields_zeroes(self):
        graph = self._edge_only_graph()
        graph.mark_input("a")
        result = compute_edge_criticalities(graph)
        assert set(result.max_criticality.values()) == {0.0}

    def test_empty_result_stays_total(self):
        graph = self._edge_only_graph()
        result = compute_edge_criticalities(graph)
        assert result.below(0.5) == {
            edge.edge_id: 0.0 for edge in graph.edges
        }
        counts, bin_edges = result.histogram(bins=4)
        assert counts.sum() == graph.num_edges
        assert bin_edges[0] == 0.0
        assert result.values().shape == (graph.num_edges,)

    def test_edgeless_graph_with_pairs(self):
        graph = TimingGraph("bare", NUM_LOCALS)
        graph.mark_input("a")
        graph.mark_output("b")
        graph.add_edge("a", "b", CanonicalForm(1.0, 0.0, [0.0] * NUM_LOCALS, 0.0))
        graph.remove_edge(graph.edges[0])
        result = compute_edge_criticalities(graph)
        assert result.max_criticality == {}
        assert result.values().shape == (0,)
        assert result.below(1.0) == {}


class TestChunkSizer:
    def test_auto_chunk_edges_is_corr_aware(self):
        from repro.model.criticality import auto_chunk_edges

        narrow = auto_chunk_edges(200, 100, 0, chunk_pairs=1 << 19)
        wide = auto_chunk_edges(200, 100, 1000, chunk_pairs=1 << 19)
        assert narrow > wide >= 1
        # The per-edge float cost I*O + (I + O)*K bounds the chunk exactly.
        per_edge = 200 * 100 + 300 * 1000
        assert wide == max(1, (1 << 19) // per_edge)

    def test_auto_chunk_edges_never_degenerates(self):
        from repro.model.criticality import auto_chunk_edges

        # Extreme pair spaces and budgets always land on a usable chunk.
        assert auto_chunk_edges(10 ** 4, 10 ** 4, 10 ** 4, chunk_pairs=1) == 1
        assert auto_chunk_edges(0, 0, 0, chunk_pairs=1 << 19) == 1 << 19
        assert auto_chunk_edges(1, 1, 0, chunk_pairs=7) == 7
        with pytest.raises(ValueError):
            auto_chunk_edges(10, 10, 0, chunk_pairs=0)

    def test_chunk_pairs_env_override(self, monkeypatch):
        from repro.model.criticality import (
            CRITICALITY_CHUNK_PAIRS,
            criticality_chunk_pairs,
        )

        assert criticality_chunk_pairs() == CRITICALITY_CHUNK_PAIRS
        monkeypatch.setenv("REPRO_CRITICALITY_CHUNK_PAIRS", "4096")
        assert criticality_chunk_pairs() == 4096
        monkeypatch.setenv("REPRO_CRITICALITY_CHUNK_PAIRS", "-1")
        with pytest.raises(ValueError):
            criticality_chunk_pairs()
        monkeypatch.setenv("REPRO_CRITICALITY_CHUNK_PAIRS", "wide")
        with pytest.raises(ValueError):
            criticality_chunk_pairs()

    def test_tiny_chunk_budget_keeps_parity(self, monkeypatch):
        # A one-edge chunk still reproduces the default-chunk result.
        graph = _build_graph(77, 4, 3, 20)
        analysis = AllPairsTiming.analyze(graph)
        reference = edge_criticality_batch(analysis)
        monkeypatch.setenv("REPRO_CRITICALITY_CHUNK_PAIRS", "1")
        tiny = edge_criticality_batch(analysis)
        _assert_results_close(reference, tiny)
