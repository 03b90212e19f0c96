"""Incremental-vs-full parity tests of the all-pairs extraction sessions.

An :class:`~repro.timing.allpairs.AllPairsSession` repropagates only the
dirty cone of each edit burst through the same levelized fold as the
from-scratch engine, in exactly its candidate order, so after any edit
sequence its per-input arrival tensors, per-output delay tensors and
input/output delay matrix must equal a fresh
:meth:`AllPairsTiming.analyze` bit for bit on every valid entry — asserted
here on randomized sequences of retime / remove / add edits over the real
ISCAS c17 circuit, a generated 4x4 array multiplier and the c432 surrogate
(the acceptance circuits of the incremental-extraction refactor).
"""

import random

import numpy as np
import pytest

from repro.core.canonical import CanonicalForm
from repro.errors import TimingGraphError
from repro.model.reduction import reduce_graph
from repro.timing.allpairs import AllPairsSession, AllPairsTiming
from repro.timing.graph import TimingGraph


@pytest.fixture
def edit_graph(parity_module) -> TimingGraph:
    """A fresh mutable copy per test (copy() preserves edge ids)."""
    return parity_module[0].copy()


def _assert_tensor_parity(session: AllPairsSession, graph: TimingGraph, what: str):
    fresh = AllPairsTiming.analyze(graph)
    analysis = session.analysis
    for prefix in ("arrival", "to_output", "matrix"):
        valid = getattr(analysis, prefix + "_valid")
        reference_valid = getattr(fresh, prefix + "_valid")
        np.testing.assert_array_equal(
            valid, reference_valid, err_msg="%s %s validity" % (what, prefix)
        )
        for component in ("mean", "corr", "randvar"):
            value = getattr(analysis, "%s_%s" % (prefix, component))
            reference = getattr(fresh, "%s_%s" % (prefix, component))
            mask = reference_valid if component != "corr" else reference_valid[..., None]
            np.testing.assert_array_equal(
                np.where(mask, value, 0.0),
                np.where(mask, reference, 0.0),
                err_msg="%s %s %s" % (what, prefix, component),
            )


class TestRandomizedEditParity:
    def test_single_edit_kinds(self, edit_graph):
        graph = edit_graph
        session = AllPairsSession(graph)

        edge = graph.edges[len(graph.edges) // 2]
        graph.replace_edge_delay(edge, edge.delay.scale(1.25))
        _assert_tensor_parity(session, graph, "retime")
        assert session.last_update.mode == "incremental"

        graph.remove_edge(graph.edges[len(graph.edges) // 3])
        _assert_tensor_parity(session, graph, "remove")

        order = graph.topological_order()
        graph.add_edge(order[1], order[-1], CanonicalForm(12.0, 0.5, None, 0.25))
        _assert_tensor_parity(session, graph, "add")

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_randomized_sequences(self, edit_graph, random_graph_edit, seed):
        graph = edit_graph
        session = AllPairsSession(graph)
        rng = random.Random(seed)
        for step in range(18):
            random_graph_edit(graph, rng)
            if step % 3 == 2:  # also exercises multi-edit coalescing
                _assert_tensor_parity(session, graph, "step %d" % step)
        _assert_tensor_parity(session, graph, "final")

    def test_edit_burst_coalesces_into_one_update(self, edit_graph):
        graph = edit_graph
        session = AllPairsSession(graph)
        rng = random.Random(11)
        for _unused in range(10):
            edge = rng.choice(graph.edges)
            graph.replace_edge_delay(edge, edge.delay.scale(rng.uniform(0.8, 1.2)))
        update = session.refresh()
        assert update.mode == "incremental"
        assert update.revision == graph.revision
        assert 0 < update.forward_recomputed
        _assert_tensor_parity(session, graph, "burst")

    def test_noop_refresh(self, edit_graph):
        graph = edit_graph
        session = AllPairsSession(graph)
        serial = session.serial
        update = session.refresh()
        assert update.mode == "noop"
        assert update.forward_recomputed == 0
        assert session.serial == serial  # noops do not consume a serial

    def test_dirty_cone_is_smaller_than_the_graph(self, edit_graph):
        graph = edit_graph
        session = AllPairsSession(graph)
        # Retiming an edge near the outputs leaves most of the forward
        # tensor untouched.
        order = graph.topological_order()
        for vertex in reversed(order):
            fanin = graph.fanin_edges(vertex)
            if fanin:
                edge = fanin[0]
                break
        graph.replace_edge_delay(edge, edge.delay.scale(1.1))
        update = session.refresh()
        assert update.mode == "incremental"
        assert update.forward_recomputed < graph.num_vertices / 2


class TestUpdateReport:
    def test_retime_reports_both_cones(self, edit_graph):
        graph = edit_graph
        session = AllPairsSession(graph)
        serial = session.serial
        edge = graph.edges[0]
        graph.replace_edge_delay(edge, edge.delay.scale(1.5))
        update = session.refresh()
        assert update.mode == "incremental"
        assert update.serial == session.serial == serial + 1
        assert update.revision == session.revision == graph.revision
        assert session.last_update is update
        # The sink's fanout cone refolds forward, the source's fanin cone
        # backward.
        assert 0 < update.forward_recomputed <= graph.num_vertices
        assert 0 < update.backward_recomputed <= graph.num_vertices
        _assert_tensor_parity(session, graph, "retime")


class TestTransientEdits:
    def test_transient_add_remove_cancels(self, edit_graph):
        graph = edit_graph
        session = AllPairsSession(graph)
        order = graph.topological_order()
        edge = graph.add_edge(order[0], order[-1], CanonicalForm(1.0, 0.0, None, 0.0))
        graph.remove_edge(edge)
        update = session.refresh()
        assert update.mode == "noop"
        _assert_tensor_parity(session, graph, "transient")


class TestFullFallbacks:
    def test_io_change_forces_full(self, edit_graph):
        graph = edit_graph
        session = AllPairsSession(graph)
        internal = next(iter(graph.internal_vertices()))
        graph.mark_output(internal)
        update = session.refresh()
        assert update.mode == "full"
        _assert_tensor_parity(session, graph, "io change")

    def test_journal_overflow_forces_full(self, c17_graph):
        graph = c17_graph
        small = TimingGraph(graph.name, graph.num_locals, journal_limit=8)
        for vertex in graph.inputs:
            small.mark_input(vertex)
        for vertex in graph.outputs:
            small.mark_output(vertex)
        for edge in graph.edges:
            small.add_edge(edge.source, edge.sink, edge.delay)
        session = AllPairsSession(small)
        rng = random.Random(3)
        for _unused in range(30):  # far beyond the retained window
            edge = rng.choice(small.edges)
            small.replace_edge_delay(edge, edge.delay.scale(rng.uniform(0.9, 1.1)))
        update = session.refresh()
        assert update.mode == "full"
        _assert_tensor_parity(session, small, "overflow")

    def test_requires_inputs_and_outputs(self):
        graph = TimingGraph("empty")
        graph.add_edge("a", "b", CanonicalForm(1.0, 0.0, None, 0.0))
        with pytest.raises(TimingGraphError):
            AllPairsSession(graph)

    def test_stale_session_raises(self, edit_graph):
        graph = edit_graph
        stale_copy = graph.copy()
        session = AllPairsSession(graph)
        edge = graph.edges[0]
        graph.replace_edge_delay(edge, edge.delay.scale(1.1))
        session.refresh()
        with pytest.raises(TimingGraphError, match="stale session"):
            stale_copy.changes_since(session.revision)


class TestCycleMidRefresh:
    @pytest.mark.parametrize("parity_module", ["c432"], indirect=True)
    def test_cycle_keeps_tensors_and_queued_cone(self, parity_module):
        graph = parity_module[0].copy()
        retimed_only = parity_module[0].copy()
        session = AllPairsSession(graph)
        reference = AllPairsSession(retimed_only)
        order = graph.topological_order()
        position = {vertex: rank for rank, vertex in enumerate(order)}
        last = order[-1]
        ancestors, frontier = set(), [last]
        while frontier:
            for predecessor in graph.predecessors(frontier.pop()):
                if predecessor not in ancestors:
                    ancestors.add(predecessor)
                    frontier.append(predecessor)
        middle = min(ancestors, key=lambda v: abs(position[v] - len(order) // 2))

        # 1. Queue a retime away from the back edge's endpoints.
        vertex = next(
            v for v in order[len(order) // 3 :] if graph.fanin_edges(v) and v != middle
        )
        edge = graph.fanin_edges(vertex)[0]
        delay = edge.delay.scale(1.3)
        for target in (graph, retimed_only):
            target.replace_edge_delay(target.edge(edge.edge_id), delay)
        expected = reference.refresh()

        # 2. A back edge from the last topological vertex to a middle
        #    vertex that reaches it closes a cycle.
        back = graph.add_edge(last, middle, CanonicalForm(1.0, 0.0, None, 0.0))

        # 3. The refresh raises before writing any state.
        before = {
            name: getattr(session.state, name).copy()
            for name in AllPairsSession._TENSOR_FIELDS
        }
        with pytest.raises(TimingGraphError, match="cycle"):
            session.refresh()
        for name, tensor in before.items():
            np.testing.assert_array_equal(
                getattr(session.state, name), tensor, err_msg=name
            )

        # 4-5. Without the back edge the queued retime cone is recomputed.
        graph.remove_edge(back)
        update = session.refresh()
        assert update.mode == "incremental"
        assert update.forward_recomputed >= expected.forward_recomputed > 0
        _assert_tensor_parity(session, graph, "after the cycle")


class TestReductionThroughSession:
    def test_reduction_keeps_the_matrix_live(self, edit_graph):
        graph = edit_graph
        session = AllPairsSession(graph)
        reference = session.analysis.matrix_means().copy()
        reduce_graph(graph)
        session.refresh()  # the whole fixpoint is one coalesced window
        assert session.revision == graph.revision
        _assert_tensor_parity(session, graph, "reduction fixpoint")
        # The merges preserve the input/output delay matrix up to the
        # re-stacked Clark approximations of the merged forms.
        np.testing.assert_allclose(
            session.analysis.matrix_means(), reference, rtol=0.03, equal_nan=True
        )
