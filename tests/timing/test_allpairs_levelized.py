"""Bitwise parity of the levelized all-pairs folds with per-vertex oracles.

The dense engine and the session's dirty-cone sweep fold level by level
through the shared fold of :mod:`repro.timing.propagation`.  The reference
functions below fold vertex by vertex instead: they visit the vertices in
(reverse) topological order and merge each fanin (fanout) candidate into
the seeded row with the allocating masked Clark kernel, one call per edge.
Both sides fold the same candidates in the same order through the same
kernels, so every tensor and cone count must be equal bit for bit —
invalid entries included.
"""

import random

import numpy as np
import pytest

from oracles import merge_max_with_validity
from repro.timing.allpairs import AllPairsSession, AllPairsTiming
from repro.timing.arrays import GraphArrays

TENSOR_FIELDS = AllPairsSession._TENSOR_FIELDS


def _fold_vertex(tensors, arrays, neighbor_rows, edges, seed):
    """Fold one vertex's candidate edges into ``seed``, one merge per edge."""
    tensor_mean, tensor_corr, tensor_randvar, tensor_valid = tensors
    mean, corr, randvar, valid = seed
    for edge in edges:
        edge_row = arrays.edge_rows[edge.edge_id]
        neighbor = neighbor_rows[edge_row]
        mean, corr, randvar, valid = merge_max_with_validity(
            mean, corr, randvar, valid,
            tensor_mean[neighbor] + arrays.edge_mean[edge_row],
            tensor_corr[neighbor] + arrays.edge_corr[edge_row],
            tensor_randvar[neighbor] + arrays.edge_randvar[edge_row],
            tensor_valid[neighbor],
        )
    return mean, corr, randvar, valid


def _reference_pass(analysis, backward):
    """The per-vertex from-scratch pass of one direction, in place."""
    arrays = analysis.arrays
    graph = arrays.graph
    index = arrays.vertex_index
    prefix = "to_output" if backward else "arrival"
    tensors = tuple(
        getattr(analysis, "%s_%s" % (prefix, name))
        for name in ("mean", "corr", "randvar", "valid")
    )
    names = analysis.outputs if backward else analysis.inputs
    for position, name in enumerate(names):
        tensors[3][index[name], position] = True
    order = arrays.topo_order
    for vertex in reversed(order) if backward else order:
        row = index[vertex]
        edges = graph.fanout_edges(vertex) if backward else graph.fanin_edges(vertex)
        if not edges:
            continue
        seed = tuple(tensor[row] for tensor in tensors)
        folded = _fold_vertex(
            tensors, arrays,
            arrays.edge_sink if backward else arrays.edge_source, edges, seed,
        )
        for tensor, value in zip(tensors, folded):
            tensor[row] = value


def _copy_matrix_column(analysis, row, position):
    """Matrix column ``position`` is the arrival row of its output vertex."""
    analysis.matrix_mean[:, position] = analysis.arrival_mean[row]
    analysis.matrix_corr[:, position] = analysis.arrival_corr[row]
    analysis.matrix_randvar[:, position] = analysis.arrival_randvar[row]
    analysis.matrix_valid[:, position] = analysis.arrival_valid[row]


def _reference_analysis(graph):
    analysis = AllPairsTiming(GraphArrays.from_graph(graph))
    _reference_pass(analysis, backward=False)
    _reference_pass(analysis, backward=True)
    index = analysis.arrays.vertex_index
    for position, name in enumerate(analysis.outputs):
        _copy_matrix_column(analysis, index[name], position)
    return analysis


class _PerVertexSession(AllPairsSession):
    """A session whose dirty-cone sweep is the per-vertex reference loop."""

    def _sweep(self, backward):
        dirty = self._dirty_bwd if backward else self._dirty_fwd
        if dirty is None:
            return 0
        analysis = self._analysis
        arrays = self._arrays
        graph = self._graph
        index = arrays.vertex_index
        order = arrays.topo_order  # raises on a cycle before any state write
        prefix = "to_output" if backward else "arrival"
        tensors = tuple(
            getattr(analysis, "%s_%s" % (prefix, name))
            for name in ("mean", "corr", "randvar", "valid")
        )
        tensor_mean, tensor_corr, tensor_randvar, tensor_valid = tensors
        positions = self._output_position if backward else self._input_position
        width = tensor_mean.shape[1]

        processed = 0
        for vertex in reversed(order) if backward else order:
            row = index[vertex]
            if not dirty[row]:
                continue
            processed += 1
            seed_valid = np.zeros(width, dtype=bool)
            position = positions.get(row)
            if position is not None:
                seed_valid[position] = True
            seed = (
                np.zeros(width),
                np.zeros((width, arrays.num_corr)),
                np.zeros(width),
                seed_valid,
            )
            edges = graph.fanout_edges(vertex) if backward else graph.fanin_edges(vertex)
            mean, corr, randvar, valid = _fold_vertex(
                tensors, arrays,
                arrays.edge_sink if backward else arrays.edge_source, edges, seed,
            )
            old_valid = tensor_valid[row]
            entry_changed = (old_valid != valid) | (
                old_valid
                & valid
                & (
                    (tensor_mean[row] != mean)
                    | (tensor_randvar[row] != randvar)
                    | np.any(tensor_corr[row] != corr, axis=-1)
                )
            )
            if not entry_changed.any():
                continue
            tensor_mean[row] = mean
            tensor_corr[row] = corr
            tensor_randvar[row] = randvar
            tensor_valid[row] = valid
            if not backward and row in self._output_position:
                _copy_matrix_column(analysis, row, self._output_position[row])
            dependents = (
                graph.fanin_edges(vertex) if backward else graph.fanout_edges(vertex)
            )
            for edge in dependents:
                dirty[index[edge.source if backward else edge.sink]] = True

        if backward:
            self._dirty_bwd = None
        else:
            self._dirty_fwd = None
        return processed


def _assert_tensors_equal(analysis, reference, what):
    for field in TENSOR_FIELDS:
        assert np.array_equal(
            getattr(analysis, field), getattr(reference, field)
        ), "%s: %s differs" % (what, field)


def _assert_updates_equal(update, reference, what):
    for field in (
        "mode", "revision", "serial", "forward_recomputed", "backward_recomputed",
    ):
        assert getattr(update, field) == getattr(reference, field), (
            "%s: %s" % (what, field)
        )


class TestColdParity:
    def test_dense_tensors_match_per_vertex_oracle(self, parity_module):
        graph = parity_module[0]
        analysis = AllPairsTiming.analyze(graph)
        _assert_tensors_equal(analysis, _reference_analysis(graph), graph.name)

    def test_session_full_pass_matches_per_vertex_oracle(self, parity_module):
        graph = parity_module[0].copy()
        session = AllPairsSession(graph)
        assert session.last_update.mode == "full"
        _assert_tensors_equal(session.state, _reference_analysis(graph), graph.name)


class TestSessionParity:
    @pytest.mark.parametrize("seed", [4, 5])
    def test_refreshes_match_per_vertex_sweep(
        self, parity_module, random_graph_edit, seed
    ):
        graph = parity_module[0].copy()
        reference_graph = parity_module[0].copy()
        session = AllPairsSession(graph)
        reference = _PerVertexSession(reference_graph)
        rng = random.Random(seed)
        reference_rng = random.Random(seed)
        incremental = 0
        for step in range(16):
            kind = random_graph_edit(graph, rng)
            assert random_graph_edit(reference_graph, reference_rng) == kind
            if step % 2 == 0:
                continue  # every refresh also coalesces two edits
            what = "step %d" % step
            update = session.refresh()
            _assert_updates_equal(update, reference.refresh(), what)
            _assert_tensors_equal(session.state, reference.state, what)
            incremental += update.mode == "incremental"
        assert incremental > 0
