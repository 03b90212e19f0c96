"""Parity and memory accounting of the blocked all-pairs engine.

The blocked engine streams input/output columns in budget-sized blocks
instead of materializing the full ``(V, I)`` / ``(V, O)`` state tensors.
The dense engine is the same levelized column pass with one block holding
every column, so both execute the identical fold kernels in the identical
order and parity with the dense reference is asserted exactly (tolerance
0: bitwise on every graph below).  ``REPRO_ALLPAIRS_BUDGET_FLOATS`` picks
the engine and the block width; widths no over-budget setting reaches run
through the private per-block pass ``_column_block``.
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
from repro.timing.allpairs import (
    ALLPAIRS_BUDGET_FLOATS,
    AllPairsSession,
    AllPairsTiming,
    _auto_block_columns,
    allpairs_budget_floats,
    dense_tensor_floats,
)
from repro.timing.arrays import GraphArrays
from repro.timing.builder import synthetic_timing_graph
from repro.timing.propagation import propagate_arrival_times_batch

PARITY_TOLERANCE = 0.0


@pytest.fixture(scope="module")
def random_graph():
    netlist = layered_random_circuit("blk", 9, 7, 160, 420, seed=21)
    return synthetic_timing_graph(netlist, num_locals=5, seed=3)


def _blocked(graph, monkeypatch, width=1):
    """The blocked analysis under the budget that streams ``width`` columns.

    The budget stays set, so the analysis' block iterators use it too.
    """
    arrays = GraphArrays.of(graph)
    budget = width * arrays.num_vertices * (arrays.num_corr + 2) * 4
    assert _auto_block_columns(arrays.num_vertices, arrays.num_corr, budget) == width
    monkeypatch.setenv("REPRO_ALLPAIRS_BUDGET_FLOATS", str(budget))
    analysis = AllPairsTiming.analyze(graph)
    assert analysis.engine == "blocked"
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
        blocked = AllPairsTiming(GraphArrays.of(random_graph), materialize=False)
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
    def test_auto_picks_dense_under_budget(self, random_graph):
        analysis = AllPairsTiming.analyze(random_graph)
        assert analysis.engine == "dense"
        assert analysis.arrival_mean is not None

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

    def test_dense_tensor_floats_formula(self):
        assert dense_tensor_floats(100, 8, 4, 5) == 100 * 12 * 7

    def test_analyze_takes_only_the_graph(self):
        # The budget alone picks the engine and the block width.
        assert list(inspect.signature(AllPairsTiming.analyze).parameters) == ["graph"]
        for iterate in (
            AllPairsTiming.iter_arrival_blocks,
            AllPairsTiming.iter_to_output_blocks,
        ):
            assert list(inspect.signature(iterate).parameters) == ["self"]


class TestBlockIterators:
    def test_arrival_blocks_cover_dense_columns(self, random_graph, monkeypatch):
        dense = AllPairsTiming.analyze(random_graph)
        blocked = _blocked(random_graph, monkeypatch, width=2)
        seen = np.zeros(len(dense.inputs), dtype=bool)
        for positions, mean, corr, randvar, valid in blocked.iter_arrival_blocks():
            columns = list(positions)
            assert len(columns) <= 2
            assert not seen[columns].any()
            seen[columns] = True
            assert np.max(
                np.abs(dense.arrival_mean[:, columns] - mean), initial=0.0
            ) <= PARITY_TOLERANCE
            assert np.array_equal(dense.arrival_valid[:, columns], valid)
        assert seen.all()

    def test_to_output_blocks_cover_dense_columns(self, random_graph, monkeypatch):
        dense = AllPairsTiming.analyze(random_graph)
        blocked = _blocked(random_graph, monkeypatch, width=3)
        seen = np.zeros(len(dense.outputs), dtype=bool)
        for positions, mean, corr, randvar, valid in blocked.iter_to_output_blocks():
            columns = list(positions)
            assert len(columns) <= 3
            seen[columns] = True
            assert np.max(
                np.abs(dense.to_output_mean[:, columns] - mean), initial=0.0
            ) <= PARITY_TOLERANCE
        assert seen.all()


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
        dense = AllPairsTiming.analyze(random_graph)
        blocked = _blocked(random_graph, monkeypatch)
        dense_report = dense.nbytes_report()
        blocked_report = blocked.nbytes_report()
        assert dense_report["arrival"] > 0
        assert dense_report["to_output"] > 0
        assert blocked_report["arrival"] == 0
        assert blocked_report["to_output"] == 0
        assert blocked_report["matrix"] == dense_report["matrix"]
        assert blocked_report["total"] < dense_report["total"]

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
        analysis = AllPairsTiming(arrays, materialize=False)
        columns = range(min(8, analysis.num_inputs))
        *_moments, valid = analysis._column_block(columns, False, FoldWorkspace())
        assert valid.any()
        result = simulate_graph_delay(graph, 16, seed=9)
        assert GraphArrays.of(graph) is arrays
        assert result.samples.shape == (16,)
