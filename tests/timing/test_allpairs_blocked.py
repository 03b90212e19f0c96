"""Parity and memory accounting of the blocked all-pairs engine.

The blocked engine streams input/output columns in budget-sized blocks
instead of materializing the full ``(V, I)`` / ``(V, O)`` state tensors.
The dense engine is the same levelized column pass with one block holding
every column, so both execute the identical fold kernels in the identical
order and parity with the dense reference is asserted exactly (tolerance
0: bitwise on every graph below).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.netlist.generators import (
    design_for_edge_count,
    layered_random_circuit,
)
from repro.timing.allpairs import (
    ALLPAIRS_BUDGET_FLOATS,
    AllPairsSession,
    AllPairsTiming,
    allpairs_budget_floats,
    dense_tensor_floats,
)
from repro.timing.arrays import GraphArrays
from repro.timing.builder import synthetic_timing_graph

PARITY_TOLERANCE = 0.0


@pytest.fixture(scope="module")
def random_graph():
    netlist = layered_random_circuit("blk", 9, 7, 160, 420, seed=21)
    return synthetic_timing_graph(netlist, num_locals=5, seed=3)


def _assert_matrix_parity(dense, blocked, tolerance=PARITY_TOLERANCE):
    assert np.array_equal(dense.matrix_valid, blocked.matrix_valid)
    for field in ("matrix_mean", "matrix_corr", "matrix_randvar"):
        a = getattr(dense, field)
        b = getattr(blocked, field)
        assert np.max(np.abs(a - b), initial=0.0) <= tolerance


class TestEngineParity:
    def test_blocked_matches_dense_on_adder(self, adder_graph):
        dense = AllPairsTiming.analyze(adder_graph, engine="dense")
        blocked = AllPairsTiming.analyze(adder_graph, engine="blocked")
        _assert_matrix_parity(dense, blocked)

    def test_blocked_matches_dense_on_random_graph(self, random_graph):
        dense = AllPairsTiming.analyze(random_graph, engine="dense")
        blocked = AllPairsTiming.analyze(random_graph, engine="blocked")
        _assert_matrix_parity(dense, blocked)

    @pytest.mark.parametrize("block_columns", [1, 3, 1000])
    def test_parity_for_every_block_width(self, random_graph, block_columns):
        dense = AllPairsTiming.analyze(random_graph, engine="dense")
        blocked = AllPairsTiming.analyze(
            random_graph, engine="blocked", block_columns=block_columns
        )
        _assert_matrix_parity(dense, blocked)

    def test_blocked_matches_dense_on_generated_large_design(self):
        # The acceptance-scale design: ~1e5 edges through the synthetic
        # variation stamper (dense stays tractable at 12x12 pairs).
        netlist = layered_random_circuit("large", 12, 12, 50_000, 100_000, seed=7)
        graph = synthetic_timing_graph(netlist, seed=1)
        dense = AllPairsTiming.analyze(graph, engine="dense")
        blocked = AllPairsTiming.analyze(graph, engine="blocked")
        _assert_matrix_parity(dense, blocked)


class TestEngineSelection:
    def test_auto_picks_dense_under_budget(self, random_graph):
        analysis = AllPairsTiming.analyze(random_graph, engine="auto")
        assert analysis.engine == "dense"
        assert analysis.arrival_mean is not None

    def test_auto_picks_blocked_over_budget(self, random_graph, monkeypatch):
        monkeypatch.setenv("REPRO_ALLPAIRS_BUDGET_FLOATS", "64")
        analysis = AllPairsTiming.analyze(random_graph, engine="auto")
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

    def test_invalid_engine_and_block_columns(self, random_graph):
        with pytest.raises(ValueError):
            AllPairsTiming.analyze(random_graph, engine="turbo")
        with pytest.raises(ValueError):
            AllPairsTiming.analyze(random_graph, engine="blocked", block_columns=0)


class TestBlockIterators:
    def test_arrival_blocks_cover_dense_columns(self, random_graph):
        dense = AllPairsTiming.analyze(random_graph, engine="dense")
        blocked = AllPairsTiming.analyze(random_graph, engine="blocked")
        seen = np.zeros(len(dense.inputs), dtype=bool)
        for positions, mean, corr, randvar, valid in blocked.iter_arrival_blocks(
            block_columns=2
        ):
            columns = list(positions)
            assert not seen[columns].any()
            seen[columns] = True
            assert np.max(
                np.abs(dense.arrival_mean[:, columns] - mean), initial=0.0
            ) <= PARITY_TOLERANCE
            assert np.array_equal(dense.arrival_valid[:, columns], valid)
        assert seen.all()

    def test_to_output_blocks_cover_dense_columns(self, random_graph):
        dense = AllPairsTiming.analyze(random_graph, engine="dense")
        blocked = AllPairsTiming.analyze(random_graph, engine="blocked")
        seen = np.zeros(len(dense.outputs), dtype=bool)
        for positions, mean, corr, randvar, valid in blocked.iter_to_output_blocks(
            block_columns=3
        ):
            columns = list(positions)
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

    def test_dense_and_blocked_reports_differ(self, random_graph):
        dense = AllPairsTiming.analyze(random_graph, engine="dense")
        blocked = AllPairsTiming.analyze(random_graph, engine="blocked")
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
