"""Parity and memory accounting of the streamed and blocked all-pairs engines.

A one-shot analysis never holds the ``(V, I)`` arrival tensors: its
forward sweep folds the inputs in blocks and writes each block's rows of
the delay matrix.  It holds the ``(V, O)`` to-output tensors while they
fit ``REPRO_ALLPAIRS_BUDGET_FLOATS`` (the streamed engine) and the matrix
only above it (the blocked engine).  The dense reference is a session's
state, which folds every input as one block.  All of them execute the
identical fold kernels in the identical order, so parity is asserted
exactly (tolerance 0: bitwise on every graph below).  The block width is
derived (``_input_block_width``); the tests force other widths by
monkeypatching it, or run the private per-block pass ``_column_block``.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.netlist.generators import (
    design_for_edge_count,
    layered_random_circuit,
)
from repro.core.batch import FoldWorkspace
from repro.montecarlo.flat import simulate_graph_delay
from repro.timing import allpairs
from repro.timing.allpairs import (
    ALLPAIRS_BUDGET_FLOATS,
    AllPairsSession,
    AllPairsTiming,
    allpairs_budget_floats,
    to_output_floats,
)
from repro.timing.arrays import GraphArrays
from repro.timing.builder import synthetic_timing_graph
from repro.timing.propagation import propagate_arrival_times_batch

PARITY_TOLERANCE = 0.0


@pytest.fixture(scope="module")
def random_graph():
    netlist = layered_random_circuit("blk", 9, 7, 160, 420, seed=21)
    return synthetic_timing_graph(netlist, num_locals=5, seed=3)


def _force_width(monkeypatch, width):
    """Fold the forward sweep in blocks of ``width`` inputs."""
    monkeypatch.setattr(allpairs, "_input_block_width", lambda *_sizes: width)


def _blocked(graph, monkeypatch, width=1):
    """The blocked analysis, its forward sweep in blocks of ``width`` inputs.

    The budget sits one float under the to-output footprint and stays set.
    """
    arrays = GraphArrays.of(graph)
    footprint = to_output_floats(
        arrays.num_vertices, len(graph.outputs), arrays.num_corr
    )
    monkeypatch.setenv("REPRO_ALLPAIRS_BUDGET_FLOATS", str(footprint - 1))
    _force_width(monkeypatch, width)
    analysis = AllPairsTiming.analyze(graph)
    assert analysis.engine == "blocked"
    assert [len(block) for block in analysis._input_blocks()][0] == min(
        width, analysis.num_inputs
    )
    return analysis


def _assert_matrix_parity(dense, blocked, tolerance=PARITY_TOLERANCE):
    assert np.array_equal(dense.matrix_valid, blocked.matrix_valid)
    for field in ("matrix_mean", "matrix_corr", "matrix_randvar"):
        a = getattr(dense, field)
        b = getattr(blocked, field)
        assert np.max(np.abs(a - b), initial=0.0) <= tolerance


class TestEngineParity:
    def test_blocked_matches_dense_on_adder(self, adder_graph, monkeypatch):
        dense = AllPairsTiming.analyze(adder_graph)
        blocked = _blocked(adder_graph, monkeypatch)
        _assert_matrix_parity(dense, blocked)

    def test_blocked_matches_dense_on_random_graph(self, random_graph, monkeypatch):
        dense = AllPairsTiming.analyze(random_graph)
        blocked = _blocked(random_graph, monkeypatch, width=3)
        _assert_matrix_parity(dense, blocked)

    @pytest.mark.parametrize("block_columns", [1, 3, 1000])
    def test_parity_for_every_block_width(self, random_graph, block_columns):
        dense = AllPairsTiming.analyze(random_graph)
        blocked = AllPairsTiming(GraphArrays.of(random_graph), engine="blocked")
        work = FoldWorkspace()
        for start in range(0, blocked.num_inputs, block_columns):
            positions = range(start, min(start + block_columns, blocked.num_inputs))
            state = blocked._column_block(positions, False, work)
            blocked._store_matrix_rows(positions, *state)
        _assert_matrix_parity(dense, blocked)

    def test_blocked_matches_dense_on_generated_large_design(self, monkeypatch):
        # The acceptance-scale design: ~1e5 edges through the synthetic
        # variation stamper (dense stays tractable at 12x12 pairs).
        netlist = layered_random_circuit("large", 12, 12, 50_000, 100_000, seed=7)
        graph = synthetic_timing_graph(netlist, seed=1)
        dense = AllPairsTiming.analyze(graph)
        blocked = _blocked(graph, monkeypatch, width=5)
        _assert_matrix_parity(dense, blocked)


class TestEngineSelection:
    def test_auto_picks_streamed_under_budget(self, random_graph):
        analysis = AllPairsTiming.analyze(random_graph)
        assert analysis.engine == "streamed"
        assert analysis.to_output_mean is not None
        # The arrival tensors are streamed, never held, and the matrix the
        # sweep fills is the dense one.
        assert analysis.nbytes_report()["arrival"] == 0
        dense = AllPairsSession(random_graph.copy()).state
        assert dense.engine == "dense"
        _assert_matrix_parity(dense, analysis)
        assert analysis.nbytes_report()["arrival"] == 0

    def test_auto_picks_blocked_over_budget(self, random_graph, monkeypatch):
        monkeypatch.setenv("REPRO_ALLPAIRS_BUDGET_FLOATS", "64")
        analysis = AllPairsTiming.analyze(random_graph)
        assert analysis.engine == "blocked"
        assert analysis.arrival_mean is None
        # The streamed result is still the full matrix.
        assert analysis.matrix_mean.shape == (
            len(analysis.inputs),
            len(analysis.outputs),
        )

    def test_budget_env_validation(self, monkeypatch):
        assert allpairs_budget_floats() == ALLPAIRS_BUDGET_FLOATS
        monkeypatch.setenv("REPRO_ALLPAIRS_BUDGET_FLOATS", "12345")
        assert allpairs_budget_floats() == 12345
        monkeypatch.setenv("REPRO_ALLPAIRS_BUDGET_FLOATS", "zero")
        with pytest.raises(ValueError):
            allpairs_budget_floats()
        monkeypatch.setenv("REPRO_ALLPAIRS_BUDGET_FLOATS", "-3")
        with pytest.raises(ValueError):
            allpairs_budget_floats()

    def test_to_output_floats_formula(self):
        assert to_output_floats(100, 4, 5) == 100 * 4 * 7

    def test_analyze_takes_only_the_graph(self):
        # The budget alone picks the engine; the block width is derived.
        assert list(inspect.signature(AllPairsTiming.analyze).parameters) == ["graph"]
        assert list(inspect.signature(AllPairsTiming._input_blocks).parameters) == ["self"]


class TestBlockIterators:
    def test_arrival_blocks_cover_dense_columns(self, random_graph, monkeypatch):
        dense = AllPairsSession(random_graph.copy()).state
        blocked = _blocked(random_graph, monkeypatch, width=2)
        seen = np.zeros(len(dense.inputs), dtype=bool)

        def visit(positions, state, matrix):
            columns = list(positions)
            assert len(columns) <= 2
            assert not seen[columns].any()
            seen[columns] = True
            for name, block, rows in zip(allpairs._SUFFIXES, state, matrix):
                assert np.array_equal(
                    getattr(dense, "arrival_" + name)[:, columns], block
                ), name
                assert np.array_equal(getattr(dense, "matrix_" + name)[columns], rows)

        blocked._sweep_inputs(visit=visit)
        assert seen.all()

    def test_to_output_tensors_match_dense(self, random_graph):
        dense = AllPairsSession(random_graph.copy()).state
        streamed = AllPairsTiming.analyze(random_graph)
        for name in allpairs._SUFFIXES:
            assert np.array_equal(
                getattr(dense, "to_output_" + name),
                getattr(streamed, "to_output_" + name),
            ), name


class TestMemoryAccounting:
    def test_graph_arrays_report(self, random_graph):
        arrays = GraphArrays.from_graph(random_graph)
        report = arrays.nbytes_report()
        fields = [
            "edge_ids",
            "edge_source",
            "edge_sink",
            "edge_mean",
            "edge_corr",
            "edge_randvar",
        ]
        for field in fields:
            assert report[field] == getattr(arrays, field).nbytes
        # Levels and adjacency are built lazily and start unaccounted.
        assert report["forward_levels"] == 0
        arrays.forward_levels()
        rebuilt = arrays.nbytes_report()
        assert rebuilt["forward_levels"] > 0
        assert rebuilt["total"] == sum(
            value for key, value in rebuilt.items() if key != "total"
        )

    def test_dense_and_blocked_reports_differ(self, random_graph, monkeypatch):
        dense = AllPairsSession(random_graph.copy()).state
        streamed = AllPairsTiming.analyze(random_graph)
        blocked = _blocked(random_graph, monkeypatch)
        dense_report = dense.nbytes_report()
        streamed_report = streamed.nbytes_report()
        blocked_report = blocked.nbytes_report()
        assert dense_report["arrival"] > 0
        assert dense_report["to_output"] > 0
        assert streamed_report["arrival"] == 0
        assert streamed_report["to_output"] == dense_report["to_output"]
        assert blocked_report["arrival"] == 0
        assert blocked_report["to_output"] == 0
        assert blocked_report["matrix"] == streamed_report["matrix"] == dense_report["matrix"]
        assert blocked_report["total"] < streamed_report["total"] < dense_report["total"]

    def test_session_report_tracks_analysis(self, random_graph):
        session = AllPairsSession(random_graph)
        before = session.nbytes_report()
        session.analysis
        after = session.nbytes_report()
        assert after["analysis"] >= before["analysis"]
        assert after["total"] == after["analysis"] + after["dirty_state"]


class TestGeneratedPipeline:
    def test_engines_run_over_one_held_view(self):
        """A generated pipeline design, at its requested size, runs
        propagation, one blocked column block and Monte Carlo over the
        graph's one held view, and propagation reaches every vertex."""
        netlist = design_for_edge_count("pipeline", 2_000, seed=13)
        graph = synthetic_timing_graph(netlist, seed=13)
        arrays = GraphArrays.of(graph)
        assert abs(arrays.edge_ids.size - 2_000) <= 200
        times = propagate_arrival_times_batch(graph)
        assert times.arrays is arrays
        assert times.valid.all()
        analysis = AllPairsTiming(arrays, engine="blocked")
        columns = range(min(8, analysis.num_inputs))
        *_moments, valid = analysis._column_block(columns, False, FoldWorkspace())
        assert valid.any()
        result = simulate_graph_delay(graph, 16, seed=9)
        assert GraphArrays.of(graph) is arrays
        assert result.samples.shape == (16,)
