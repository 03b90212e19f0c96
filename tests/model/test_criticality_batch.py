"""Property-based parity suite of the batched criticality kernel.

The edge-chunked kernel of :mod:`repro.model.criticality` shares its
floating-point expressions with the one-edge-at-a-time scalar reference
``edge_criticality_matrix`` (``tests/oracles.py``), so on *any* module
every edge's maximum must agree with the maximum of its reference matrix
(the ``criticality_reference`` fixture) to 1e-9 — asserted here on
hypothesis-randomized layered DAGs, including the degenerate corners the
shared tie rule exists for (zero-variance delays, exactly tied maxima,
single-input/single-output modules), and after randomized retime bursts
driven through an extraction session.
"""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import edge_criticality_matrix, edge_criticality_tensor
from repro.core import chunk_threads
from repro.core.canonical import CanonicalForm
from repro.model import criticality
from repro.model.criticality import (
    compute_edge_criticalities,
    edge_criticality_batch,
)
from repro.model.extraction import ExtractionSession
from repro.timing.allpairs import AllPairsTiming
from repro.timing.graph import TimingGraph
from repro.variation.grid import Die, GridPartition
from repro.variation.model import VariationModel

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
        # Two 10x10 grids: a variation model with the graph's two locals.
        variation = VariationModel(GridPartition.regular(Die(20.0, 10.0), 10.0))
        session = ExtractionSession(graph, variation)
        for edge_pick, factor in burst:
            edge = graph.edges[edge_pick % graph.num_edges]
            graph.replace_edge_delay(edge, edge.delay.scale(factor))
            session.refresh()
        reference = criticality_reference(graph, AllPairsTiming.analyze(graph))
        _assert_results_close(reference, session.criticalities)

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
    def test_chunking_is_invariant(self, monkeypatch):
        """Any chunk size yields the same result as one big chunk here.

        Exactly on this small synthetic graph; on real modules BLAS rounds
        by the chunk shape, so only to 1e-9
        (``TestChunkSizer::test_one_edge_chunks_on_a_real_module``).
        """
        graph = _build_graph(11, 3, 3, 10)
        analysis = AllPairsTiming.analyze(graph)
        whole = edge_criticality_batch(analysis)
        for chunk_pairs in (1, 7, 64, 1 << 20):
            monkeypatch.setattr(criticality, "CRITICALITY_CHUNK_PAIRS", chunk_pairs)
            chunked = edge_criticality_batch(analysis)
            assert chunked.max_criticality == whole.max_criticality
            assert chunked.argmax_pairs == whole.argmax_pairs


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
        reference = criticality_reference(graph, analysis)
        _assert_results_close(reference, batch)
        _assert_argmax_attains(graph, analysis, batch)
        # Extraction keeps the same edges at the paper's threshold.
        for edge_id, value in reference.max_criticality.items():
            assert (batch.max_criticality[edge_id] < 0.05) == (value < 0.05)

    def test_entry_points_take_no_engine(self):
        # Nor a chunk budget: CRITICALITY_CHUNK_PAIRS sizes every chunk.
        from repro.experiments.ablation import run_threshold_sweep
        from repro.model.criticality import auto_chunk_edges

        for entry in (
            compute_edge_criticalities,
            edge_criticality_batch,
            auto_chunk_edges,
            ExtractionSession,
            ExtractionSession.from_snapshot,
            run_threshold_sweep,
        ):
            parameters = set(inspect.signature(entry).parameters)
            assert not {"engine", "criticality_engine", "chunk_pairs"} & parameters, entry


class TestSessionRetime:
    """A refreshed extraction session recomputes its criticalities with the
    batched kernel on tensors bit-identical to a cold analysis, so after a
    dense mid-graph retime or a sparse input-stage one its map equals a
    cold recompute bit for bit, argmax pairs included."""

    def _assert_equals_cold(self, graph, session):
        cold = compute_edge_criticalities(graph, AllPairsTiming.analyze(graph))
        warm = session.criticalities
        assert warm.max_criticality == cold.max_criticality
        assert warm.argmax_pairs == cold.argmax_pairs

    def test_dense_retime_matches_cold_batch_exactly(self, parity_module):
        pristine, variation = parity_module
        graph = pristine.copy()
        session = ExtractionSession(graph, variation)
        analysis = session.analysis
        arrays = analysis.arrays
        reaching = analysis.arrival_valid.sum(axis=1)
        reached = analysis.to_output_valid.sum(axis=1)
        # The edge on the paths of the most input/output pairs.
        edge = max(
            graph.edges,
            key=lambda edge: int(
                reaching[arrays.edge_source[arrays.edge_rows[edge.edge_id]]]
            )
            * int(reached[arrays.edge_sink[arrays.edge_rows[edge.edge_id]]]),
        )
        graph.replace_edge_delay(edge, edge.delay.scale(1.2))
        assert session.refresh().mode == "incremental"
        self._assert_equals_cold(graph, session)

    def test_sparse_retime_matches_cold_batch_exactly(self, parity_module):
        pristine, variation = parity_module
        graph = pristine.copy()
        session = ExtractionSession(graph, variation)
        edge = graph.fanout_edges(graph.inputs[0])[0]
        graph.replace_edge_delay(edge, edge.delay.scale(1.01))
        assert session.refresh().mode == "incremental"
        self._assert_equals_cold(graph, session)


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


class TestScratchReuse:
    def test_a_wider_analysis_leaves_no_stale_views(self, c432_graph, library):
        """Regression: a thread's scratch reused for a narrower chunk shape
        (a last, narrower input block) handed out non-contiguous views, and
        the kernel's flat tie-refinement writes into them were lost: 6 of
        c432's 336 values moved, with no error."""
        from repro.netlist.iscas85 import iscas85_surrogate
        from repro.placement.placer import place_netlist
        from repro.timing.allpairs import AllPairsSession
        from repro.timing.builder import build_timing_graph, default_variation_for

        netlist = iscas85_surrogate("c499")  # 41 x 32 pairs, c432 has 36 x 7
        placement = place_netlist(netlist, library)
        wide_graph = build_timing_graph(
            netlist, library, placement, default_variation_for(netlist, placement)
        )
        wide = AllPairsSession(wide_graph).state
        narrow = AllPairsSession(c432_graph.copy()).state
        assert wide_graph.num_edges >= c432_graph.num_edges
        work = criticality._analysis_work(wide, 1)[0]
        criticality._chunk_terms(
            wide, np.arange(wide_graph.num_edges),
            criticality._matrix_moments(wide), work,
        )
        rows = np.arange(c432_graph.num_edges)
        moments = criticality._matrix_moments(narrow)
        reused = [
            np.array(terms)
            for terms in criticality._chunk_terms(narrow, rows, moments, work)
        ]
        fresh = criticality._chunk_terms(narrow, rows, moments)
        for name, reused_terms, fresh_terms in zip(
            ("z", "degenerate", "tied", "valid"), reused, fresh
        ):
            assert np.array_equal(reused_terms, fresh_terms), name


class TestChunkSizer:
    def test_auto_chunk_edges_is_corr_aware(self):
        from repro.model.criticality import auto_chunk_edges

        narrow = auto_chunk_edges(200, 100, 0)
        wide = auto_chunk_edges(200, 100, 1000)
        assert narrow > wide >= 1
        # The per-edge float cost I*O + (I + O)*K bounds the chunk exactly.
        per_edge = 200 * 100 + 300 * 1000
        assert wide == max(1, criticality.CRITICALITY_CHUNK_PAIRS // per_edge)

    def test_auto_chunk_edges_never_degenerates(self, monkeypatch):
        from repro.model.criticality import auto_chunk_edges

        # Extreme pair spaces and budgets always land on a usable chunk.
        assert auto_chunk_edges(0, 0, 0) == criticality.CRITICALITY_CHUNK_PAIRS
        monkeypatch.setattr(criticality, "CRITICALITY_CHUNK_PAIRS", 1)
        assert auto_chunk_edges(10 ** 4, 10 ** 4, 10 ** 4) == 1
        monkeypatch.setattr(criticality, "CRITICALITY_CHUNK_PAIRS", 7)
        assert auto_chunk_edges(1, 1, 0) == 7

    def test_tiny_chunk_budget_keeps_parity(self, monkeypatch):
        # A one-edge chunk still reproduces the default-chunk result.
        graph = _build_graph(77, 4, 3, 20)
        analysis = AllPairsTiming.analyze(graph)
        reference = edge_criticality_batch(analysis)
        monkeypatch.setattr(criticality, "CRITICALITY_CHUNK_PAIRS", 1)
        tiny = edge_criticality_batch(analysis)
        _assert_results_close(reference, tiny)

    def test_one_edge_chunks_on_a_real_module(self, c432_graph, monkeypatch):
        # On a real module another chunking moves values within the 1e-9
        # contract, not bitwise (BLAS rounds by the chunk shape), and the
        # argmax pairs still attain the maximum.
        graph = c432_graph
        analysis = AllPairsTiming.analyze(graph)
        default = compute_edge_criticalities(graph, analysis)
        monkeypatch.setattr(criticality, "CRITICALITY_CHUNK_PAIRS", 1)
        one_edge = compute_edge_criticalities(graph, analysis)
        _assert_results_close(default, one_edge)
        _assert_argmax_attains(graph, analysis, one_edge)


def _three_edge_chunks(monkeypatch, analysis):
    """Cut ``analysis``'s edges into chunks of three."""
    num_inputs, num_outputs = analysis.num_inputs, analysis.num_outputs
    num_corr = analysis.arrays.edge_corr.shape[1]
    per_edge = num_inputs * num_outputs + (num_inputs + num_outputs) * num_corr
    monkeypatch.setattr(criticality, "CRITICALITY_CHUNK_PAIRS", 3 * per_edge)
    assert criticality.auto_chunk_edges(num_inputs, num_outputs, num_corr) == 3


def _assert_identical(expected, actual):
    assert actual.max_criticality == expected.max_criticality
    assert actual.argmax_pairs == expected.argmax_pairs


class TestThreads:
    """Threads split the serial loop's chunks, never re-cut them, so any
    thread count gives the serial loop's bits, argmax pairs included."""

    @pytest.mark.parametrize(
        "threads", [1, 2, 3, pytest.param(None, id="host")]
    )
    def test_forced_threads_match_the_serial_loop(
        self, parity_module, monkeypatch, force_threads, threads
    ):
        graph = parity_module[0]
        analysis = AllPairsTiming.analyze(graph)
        _three_edge_chunks(monkeypatch, analysis)
        serial = compute_edge_criticalities(graph, analysis)
        force_threads(threads)
        _assert_identical(serial, compute_edge_criticalities(graph, analysis))

    @pytest.mark.parametrize("threads", [2, 3])
    def test_forced_threads_after_a_session_refresh(
        self, parity_module, monkeypatch, force_threads, threads
    ):
        pristine, variation = parity_module
        graph = pristine.copy()
        _three_edge_chunks(monkeypatch, AllPairsTiming.analyze(graph))
        force_threads(threads)
        session = ExtractionSession(graph, variation)
        edge = graph.edges[len(graph.edges) // 2]
        graph.replace_edge_delay(edge, edge.delay.scale(1.3))
        assert session.refresh().mode == "incremental"
        force_threads(1)
        cold = compute_edge_criticalities(graph, AllPairsTiming.analyze(graph))
        _assert_identical(cold, session.criticalities)

    def test_more_threads_than_chunks(self, parity_module, monkeypatch):
        graph = parity_module[0]
        analysis = AllPairsTiming.analyze(graph)
        _three_edge_chunks(monkeypatch, analysis)
        serial = compute_edge_criticalities(graph, analysis)
        monkeypatch.setattr(
            chunk_threads, "_thread_count", lambda num_chunks: num_chunks + 3
        )
        _assert_identical(serial, compute_edge_criticalities(graph, analysis))

    def test_a_stalled_thread_leaves_its_chunks_to_the_others(
        self, parity_module, monkeypatch, force_threads
    ):
        import threading

        graph = parity_module[0]
        analysis = AllPairsTiming.analyze(graph)
        _three_edge_chunks(monkeypatch, analysis)
        serial = compute_edge_criticalities(graph, analysis)
        num_chunks = -(-graph.num_edges // 3)
        assert num_chunks >= 4
        force_threads(2)
        chunk_terms = criticality._chunk_terms
        lock = threading.Lock()
        stalled, others = [], []
        rest_done = threading.Event()

        def stalling_chunk_terms(analysis, rows, moments, work=None):
            # The first thread to start a chunk stalls in it until the
            # other thread has evaluated every other chunk.
            with lock:
                stall = not stalled
                if stall:
                    stalled.append(threading.get_ident())
            if stall:
                rest_done.wait(timeout=30.0)
            else:
                with lock:
                    others.append(threading.get_ident())
                    if len(others) == num_chunks - 1:
                        rest_done.set()
            return chunk_terms(analysis, rows, moments, work)

        monkeypatch.setattr(criticality, "_chunk_terms", stalling_chunk_terms)
        result = compute_edge_criticalities(graph, analysis)
        assert rest_done.is_set(), "the other thread left chunks unevaluated"
        assert len(others) == num_chunks - 1
        assert stalled[0] not in others
        _assert_identical(serial, result)

    def test_a_failing_chunk_raises_to_the_caller(
        self, c432_graph, monkeypatch, force_threads
    ):
        import threading

        analysis = AllPairsTiming.analyze(c432_graph)
        _three_edge_chunks(monkeypatch, analysis)
        force_threads(2)
        chunk_terms = criticality._chunk_terms

        def failing_chunk_terms(analysis, rows, moments, work=None):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError("chunk at row %d" % rows[0])
            return chunk_terms(analysis, rows, moments, work)

        monkeypatch.setattr(criticality, "_chunk_terms", failing_chunk_terms)
        raised = []

        def run():
            try:
                compute_edge_criticalities(c432_graph, analysis)
            except FloatingPointError as exc:
                raised.append(exc)

        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(timeout=60.0)
        assert not caller.is_alive(), "the chunk loop hung on a failed chunk"
        assert len(raised) == 1 and "chunk at row" in str(raised[0])

    def test_a_pool_worker_keeps_to_one_thread(self, monkeypatch):
        import multiprocessing
        import os

        # BLAS on one thread per call: only the daemon flag can say 1.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert chunk_threads._usable_cpus() == len(os.sched_getaffinity(0))
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            result = pool.apply_async(chunk_threads._usable_cpus)
            in_worker = result.get(timeout=120)
        assert in_worker == 1

    @pytest.mark.parametrize(
        "blas_env, single",
        [
            ({}, False),
            ({"OMP_NUM_THREADS": "1"}, True),
            ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, True),
            ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
        ],
    )
    def test_a_threaded_blas_keeps_the_serial_loop(
        self, monkeypatch, blas_env, single
    ):
        import os

        for name in chunk_threads._BLAS_THREADS_ENV:
            monkeypatch.delenv(name, raising=False)
        for name, value in blas_env.items():
            monkeypatch.setenv(name, value)
        cpus = len(os.sched_getaffinity(0)) if single else 1
        assert chunk_threads._usable_cpus() == cpus
        assert chunk_threads._thread_count(10 ** 6) == cpus
        below_floor = chunk_threads._CHUNKS_PER_THREAD - 1
        assert chunk_threads._thread_count(below_floor) == 1
