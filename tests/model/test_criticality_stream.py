"""Edge criticality streamed over the forward sweep's input blocks.

A one-shot analysis (:meth:`AllPairsTiming.analyze`) never holds the
``(V, I)`` arrival tensors: the criticality folds one input block's
arrival columns at a time, writes the block's rows of the delay matrix,
scores the edges the block reaches and drops the block.  A session holds
the dense tensors and runs the same block kernel over column views of
them, so the two agree bit for bit.  Another block width changes only the
BLAS shapes, so it moves values within the 1e-9 contract and keeps the
argmax pairs.  Widths are forced by monkeypatching
``repro.timing.allpairs._input_block_width``.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.canonical import CanonicalForm
from repro.errors import TimingGraphError
from repro.experiments.table1 import TABLE1_CIRCUITS
from repro.model import criticality
from repro.model.criticality import compute_edge_criticalities
from repro.model.extraction import extract_timing_model
from repro.netlist.iscas85 import iscas85_surrogate
from repro.netlist.multiplier import array_multiplier
from repro.placement.placer import place_netlist
from repro.timing import allpairs
from repro.timing.allpairs import AllPairsSession, AllPairsTiming
from repro.timing.builder import build_timing_graph, default_variation_for
from repro.timing.graph import TimingGraph

PARITY = 1e-9
MIB = float(1 << 20)


def _placed(netlist, library):
    placement = place_netlist(netlist, library)
    variation = default_variation_for(netlist, placement)
    return build_timing_graph(netlist, library, placement, variation), variation


def _force_width(monkeypatch, width):
    """Fold the forward sweep in blocks of ``width`` inputs (None: one block)."""
    monkeypatch.setattr(
        allpairs,
        "_input_block_width",
        lambda num_vertices, num_inputs, num_corr: width or num_inputs,
    )


def _assert_matrix_equal(expected, actual):
    for name in allpairs._SUFFIXES:
        assert np.array_equal(
            getattr(expected, "matrix_" + name), getattr(actual, "matrix_" + name)
        ), name


def _assert_identical(expected, actual):
    assert actual.max_criticality == expected.max_criticality
    assert actual.argmax_pairs == expected.argmax_pairs


def _assert_close(expected, actual):
    assert actual.max_criticality.keys() == expected.max_criticality.keys()
    for edge_id, value in expected.max_criticality.items():
        assert abs(actual.max_criticality[edge_id] - value) <= PARITY, edge_id
    assert actual.argmax_pairs == expected.argmax_pairs


def _graph_with_dead_inputs(seed, num_inputs=9, num_outputs=4, num_internal=24):
    """A random layered DAG where every odd input and an orphan reach nothing.

    The odd inputs have no fanout, so a one-input block of one of them
    reaches no edge; the orphan vertex is no input and feeds internal
    vertices, so its edges have no valid arrival from any input.
    """
    rng = np.random.default_rng(seed)
    graph = TimingGraph("dead%d" % seed, 2)
    inputs = ["i%d" % position for position in range(num_inputs)]
    outputs = ["o%d" % position for position in range(num_outputs)]
    internal = ["v%d" % position for position in range(num_internal)]
    for name in inputs:
        graph.mark_input(name)
    for name in outputs:
        graph.mark_output(name)
    sources = inputs[::2] + internal

    def delay():
        return CanonicalForm(
            float(rng.uniform(1.0, 20.0)),
            float(rng.uniform(0.0, 1.5)),
            [float(value) for value in rng.uniform(-1.0, 1.0, 2)],
            float(rng.uniform(0.0, 1.5)),
        )

    for position, name in enumerate(internal + outputs):
        limit = len(inputs[::2]) + min(position, num_internal)
        for _edge in range(int(rng.integers(1, 4))):
            graph.add_edge(sources[int(rng.integers(0, limit))], name, delay())
    for name in internal[num_internal // 2 :: 5]:
        graph.add_edge("orphan", name, delay())
    return graph


@pytest.fixture(scope="module", params=TABLE1_CIRCUITS + ("mult4", "mult8", "mult16"))
def circuit(request, library):
    name = request.param
    if name.startswith("mult"):
        return _placed(array_multiplier(int(name[4:])), library)
    return _placed(iscas85_surrogate(name), library)


class TestTableOneParity:
    def test_one_shot_matches_the_dense_session(self, circuit):
        graph, variation = circuit
        streamed = AllPairsTiming.analyze(graph)
        assert streamed.nbytes_report()["arrival"] == 0
        result = compute_edge_criticalities(graph, streamed)
        assert streamed.nbytes_report()["arrival"] == 0
        model = extract_timing_model(
            graph, variation, analysis=streamed, criticalities=result
        )

        dense_graph = graph.copy()  # sessions journal their graph
        dense = AllPairsSession(dense_graph).state
        assert dense.engine == "dense"
        _assert_matrix_equal(dense, streamed)
        reference = compute_edge_criticalities(dense_graph, dense)
        _assert_identical(reference, result)
        dense_model = extract_timing_model(
            dense_graph, variation, analysis=dense, criticalities=reference
        )
        assert [
            (edge.source, edge.sink, edge.delay) for edge in dense_model.graph.edges
        ] == [(edge.source, edge.sink, edge.delay) for edge in model.graph.edges]


class TestBlockWidths:
    @pytest.mark.parametrize("seed", [3, 8])
    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_widths_match_one_block(self, monkeypatch, seed, width):
        # Nine inputs: widths 2 and 4 end on a one-input block, and the
        # one-input blocks of the odd inputs reach no edge at all.
        graph = _graph_with_dead_inputs(seed)
        _force_width(monkeypatch, None)
        one_block = AllPairsTiming.analyze(graph)
        reference = compute_edge_criticalities(graph, one_block)
        _force_width(monkeypatch, width)
        streamed = AllPairsTiming.analyze(graph)
        assert len(streamed._input_blocks()[-1]) == 1
        result = compute_edge_criticalities(graph, streamed)
        _assert_matrix_equal(one_block, streamed)
        _assert_close(reference, result)
        orphan_edges = [e.edge_id for e in graph.edges if e.source == "orphan"]
        assert orphan_edges
        for edge_id in orphan_edges:
            assert result.max_criticality[edge_id] == 0.0
            assert result.argmax_pairs[edge_id] == (0, 0)

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_session_views_match_the_one_shot_sweep(self, monkeypatch, width):
        graph = _graph_with_dead_inputs(5)
        _force_width(monkeypatch, width)
        streamed = compute_edge_criticalities(graph, AllPairsTiming.analyze(graph))
        dense_graph = graph.copy()
        session = AllPairsSession(dense_graph)
        _assert_identical(
            streamed, compute_edge_criticalities(dense_graph, session.state)
        )
        assert session.state.nbytes_report()["arrival"] > 0

    def test_real_module_in_narrow_blocks(self, c432_graph, monkeypatch):
        # 36 inputs in 5-wide blocks: BLAS sees other shapes, so values
        # move within the contract, and the argmax pairs stay.
        graph = c432_graph
        reference = compute_edge_criticalities(graph, AllPairsTiming.analyze(graph))
        _force_width(monkeypatch, 5)
        result = compute_edge_criticalities(graph, AllPairsTiming.analyze(graph))
        _assert_close(reference, result)


class TestOneForwardSweep:
    def _count_folds(self, monkeypatch):
        folds = []
        column_block = AllPairsTiming._column_block

        def counted(self, positions, backward, work):
            folds.append((positions, backward))
            return column_block(self, positions, backward, work)

        monkeypatch.setattr(AllPairsTiming, "_column_block", counted)
        return folds

    def test_criticality_fills_the_matrix_on_its_sweep(self, c432_graph, monkeypatch):
        graph = c432_graph
        _force_width(monkeypatch, 8)
        folds = self._count_folds(monkeypatch)
        analysis = AllPairsTiming.analyze(graph)
        assert folds == []
        compute_edge_criticalities(graph, analysis)
        blocks = analysis._input_blocks()
        assert [positions for positions, _backward in folds] == blocks
        analysis.matrix_means()
        assert len(folds) == len(blocks)
        _force_width(monkeypatch, None)
        _assert_matrix_equal(AllPairsSession(graph.copy()).state, analysis)

    def test_a_matrix_read_runs_the_sweep_once(self, c432_graph, monkeypatch):
        graph = c432_graph
        _force_width(monkeypatch, 8)
        folds = self._count_folds(monkeypatch)
        analysis = AllPairsTiming.analyze(graph)
        first = analysis.matrix_means()
        assert len(folds) == len(analysis._input_blocks())
        assert np.array_equal(first, analysis.matrix_means(), equal_nan=True)
        assert len(folds) == len(analysis._input_blocks())
        assert analysis.nbytes_report()["arrival"] == 0

    def test_a_stale_sweep_raises(self, c432_graph):
        graph = c432_graph.copy()
        analysis = AllPairsTiming.analyze(graph)
        edge = graph.edges[0]
        graph.replace_edge_delay(edge, edge.delay.scale(1.1))
        with pytest.raises(TimingGraphError, match="stale analysis="):
            analysis.matrix_means()


class TestThreads:
    """Threads split each block's chunks, never re-cut them, so any thread
    count gives the serial loop's bits over a multi-block sweep too."""

    @pytest.mark.parametrize("threads", [1, 2, 4, pytest.param(None, id="host")])
    def test_forced_threads_match_the_serial_loop(
        self, c432_graph, monkeypatch, force_threads, threads
    ):
        graph = c432_graph
        _force_width(monkeypatch, 5)
        monkeypatch.setattr(criticality, "CRITICALITY_CHUNK_PAIRS", 1 << 12)
        serial = compute_edge_criticalities(graph, AllPairsTiming.analyze(graph))
        force_threads(threads)
        streamed = AllPairsTiming.analyze(graph)
        _assert_identical(serial, compute_edge_criticalities(graph, streamed))
        dense_graph = graph.copy()
        session = AllPairsSession(dense_graph)
        _assert_identical(serial, compute_edge_criticalities(dense_graph, session.state))


class TestMemory:
    def test_c5315_peak_stays_under_the_dense_tensors(self, library, force_threads):
        graph, _variation = _placed(iscas85_surrogate("c5315"), library)
        # The (V, I) arrival and (V, O) to-output tensors a dense analysis
        # holds: mean, randvar and 1 + K coefficients per entry, 159 MiB.
        dense_bytes = 8 * graph.num_vertices * (
            len(graph.inputs) + len(graph.outputs)
        ) * (graph.num_locals + 3)
        force_threads(2)
        tracemalloc.start()
        try:
            analysis = AllPairsTiming.analyze(graph)
            compute_edge_criticalities(graph, analysis)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert analysis.nbytes_report()["arrival"] == 0
        assert peak < dense_bytes, (peak / MIB, dense_bytes / MIB)
