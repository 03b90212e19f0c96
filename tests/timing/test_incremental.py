"""Incremental-vs-full parity tests for the revisioned timing sessions.

The :class:`~repro.timing.incremental.IncrementalTimer` repropagates only
the dirty cone of each edit but folds candidates in exactly the order of
the full batched engine, so after any edit sequence its state must match a
from-scratch batch pass to 1e-9 — asserted here on randomized sequences of
retime / remove / add edits over the real ISCAS c17 circuit, a generated
4x4 array multiplier and the c432 surrogate.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.canonical import CanonicalForm
from repro.errors import TimingGraphError
from repro.model.reduction import reduce_graph
from repro.timing.graph import TimingGraph
from repro.timing.incremental import IncrementalTimer
from repro.timing.propagation import (
    compute_slacks_batch,
    propagate_arrival_times_batch,
    propagate_required_times_batch,
)
from repro.timing.sta import corner_sta


@pytest.fixture
def edit_graph(parity_module) -> TimingGraph:
    """A fresh mutable copy per test (copy() preserves edge ids)."""
    return parity_module[0].copy()


def _constraint(graph: TimingGraph) -> CanonicalForm:
    return CanonicalForm.constant(5000.0, graph.num_locals)


def _assert_dicts_close(incremental, reference, what, rtol=1e-9, atol=1e-9):
    assert set(incremental) == set(reference), what
    for vertex, form in incremental.items():
        assert form.is_close(reference[vertex], rtol=rtol, atol=atol), (
            what,
            vertex,
        )


def _assert_parity(timer: IncrementalTimer, graph: TimingGraph, what: str):
    _assert_dicts_close(
        timer.arrival_times(),
        propagate_arrival_times_batch(graph).as_dict(),
        ("arrivals", what),
    )
    _assert_dicts_close(
        timer.slacks(),
        compute_slacks_batch(graph, timer.required_time).as_dict(),
        ("slacks", what),
    )


class TestRandomizedEditParity:
    def test_single_edit_kinds(self, edit_graph):
        graph = edit_graph
        timer = IncrementalTimer(graph, required_time=_constraint(graph))
        timer.update()

        edge = graph.edges[len(graph.edges) // 2]
        graph.replace_edge_delay(edge, edge.delay.scale(1.25))
        _assert_parity(timer, graph, "retime")

        graph.remove_edge(graph.edges[len(graph.edges) // 3])
        _assert_parity(timer, graph, "remove")

        order = graph.topological_order()
        graph.add_edge(
            order[1], order[-1], CanonicalForm(12.0, 0.5, None, 0.25)
        )
        _assert_parity(timer, graph, "add")

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_randomized_sequences(self, edit_graph, random_graph_edit, seed):
        graph = edit_graph
        timer = IncrementalTimer(graph, required_time=_constraint(graph))
        timer.update()
        rng = random.Random(seed)
        for step in range(18):
            random_graph_edit(graph, rng)
            if step % 3 == 2:  # also exercises multi-edit coalescing
                _assert_parity(timer, graph, "step %d" % step)
        _assert_parity(timer, graph, "final")

    def test_edit_burst_coalesces_into_one_update(self, edit_graph):
        graph = edit_graph
        timer = IncrementalTimer(graph, required_time=_constraint(graph))
        timer.update()
        rng = random.Random(11)
        for _unused in range(10):
            edge = rng.choice(graph.edges)
            graph.replace_edge_delay(edge, edge.delay.scale(rng.uniform(0.8, 1.2)))
        stats = timer.update()
        assert stats.mode == "incremental"
        assert stats.revision == graph.revision
        _assert_parity(timer, graph, "burst")

    def test_input_arrival_offsets(self, edit_graph):
        graph = edit_graph
        offsets = {
            name: CanonicalForm(5.0 + position, 0.4, [0.2], 0.1)
            for position, name in enumerate(graph.inputs)
        }
        timer = IncrementalTimer(
            graph, input_arrivals=offsets, required_time=_constraint(graph)
        )
        timer.update()
        edge = graph.edges[0]
        graph.replace_edge_delay(edge, edge.delay.scale(1.4))
        _assert_dicts_close(
            timer.arrival_times(),
            propagate_arrival_times_batch(graph, offsets).as_dict(),
            "seeded arrivals",
        )


class TestLazyQueries:
    def test_point_queries_match_dictionaries(self, edit_graph):
        graph = edit_graph
        timer = IncrementalTimer(graph, required_time=_constraint(graph))
        graph.replace_edge_delay(graph.edges[2], graph.edges[2].delay.scale(1.1))
        arrivals = timer.arrival_times()
        slacks = timer.slacks()
        for vertex in graph.vertices:
            arrival = timer.arrival_at(vertex)
            if arrival is None:
                assert vertex not in arrivals
            else:
                assert arrival == arrivals[vertex]
            slack = timer.slack_at(vertex)
            if slack is not None:
                assert slack.is_close(slacks[vertex], rtol=1e-12, atol=1e-12)
        assert timer.arrival_at("__ghost__") is None

    def test_circuit_delay_matches_full_reduction(self, edit_graph):
        graph = edit_graph
        timer = IncrementalTimer(graph)
        graph.replace_edge_delay(graph.edges[1], graph.edges[1].delay.scale(1.2))
        times = propagate_arrival_times_batch(graph)
        rows = [
            int(row) for row in times.arrays.output_rows if times.valid[row]
        ]
        expected = times.batch.gather(rows).max_over()
        assert timer.circuit_delay().is_close(expected, rtol=1e-9, atol=1e-9)

    def test_criticalities_are_probabilities(self, edit_graph):
        graph = edit_graph
        timer = IncrementalTimer(graph)
        delay_mean = timer.circuit_delay().mean
        timer.set_required_time(timer.circuit_delay())
        criticalities = timer.criticalities()
        assert set(criticalities) == {edge.edge_id for edge in graph.edges}
        values = np.asarray(list(criticalities.values()))
        assert np.all(values >= 0.0) and np.all(values <= 1.0)
        # The constraint sits at the (soft-max) circuit delay, so the most
        # critical edges hover just below the 50/50 tightness point.
        assert values.max() > 0.3
        # A constraint far below the circuit delay makes the critical path
        # violate almost surely; far above, every edge is safely uncritical.
        timer.set_required_time(
            CanonicalForm.constant(0.25 * delay_mean, graph.num_locals)
        )
        assert max(timer.criticalities().values()) > 0.95
        timer.set_required_time(
            CanonicalForm.constant(4.0 * delay_mean, graph.num_locals)
        )
        assert max(timer.criticalities().values()) < 0.05

    def test_set_required_time_updates_slacks(self, edit_graph):
        graph = edit_graph
        timer = IncrementalTimer(graph, required_time=_constraint(graph))
        timer.slacks()
        tighter = CanonicalForm.constant(100.0, graph.num_locals)
        timer.set_required_time(tighter)
        _assert_dicts_close(
            timer.slacks(),
            compute_slacks_batch(graph, tighter).as_dict(),
            "retimed constraint",
        )


class TestNoOpProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        num_edits=st.integers(min_value=0, max_value=6),
    )
    def test_update_after_empty_journal_is_noop(
        self, random_graph_edit, seed, num_edits
    ):
        graph = _small_diamond()
        timer = IncrementalTimer(graph, required_time=_constraint(graph))
        rng = random.Random(seed)
        for _unused in range(num_edits):
            if graph.num_edges == 0:
                break
            random_graph_edit(graph, rng)
        timer.update()  # drains everything the edits produced
        snapshot = (
            timer._fwd.mean.copy(),
            timer._fwd.valid.copy(),
            timer._bwd.mean.copy(),
            timer._bwd.valid.copy(),
        )
        stats = timer.update()  # journal is now empty
        assert stats.mode == "noop"
        assert stats.forward_recomputed == 0
        assert stats.backward_recomputed == 0
        np.testing.assert_array_equal(timer._fwd.mean, snapshot[0])
        np.testing.assert_array_equal(timer._fwd.valid, snapshot[1])
        np.testing.assert_array_equal(timer._bwd.mean, snapshot[2])
        np.testing.assert_array_equal(timer._bwd.valid, snapshot[3])


def _small_diamond() -> TimingGraph:
    graph = TimingGraph("diamond", 0)
    graph.mark_input("a")
    graph.mark_output("z")
    graph.add_edge("a", "u", CanonicalForm(10.0, 1.0, None, 0.5))
    graph.add_edge("a", "v", CanonicalForm(20.0, 0.5, None, 0.25))
    graph.add_edge("u", "z", CanonicalForm(5.0, 0.2, None, 0.1))
    graph.add_edge("v", "z", CanonicalForm(1.0, 0.1, None, 0.05))
    return graph


class TestStaleSessionsAndJournal:
    def test_stale_session_raises(self):
        graph = _small_diamond()
        stale_copy = graph.copy()
        edge = graph.edges[0]
        graph.replace_edge_delay(edge, edge.delay.scale(1.1))
        timer = IncrementalTimer(graph)
        timer.update()
        # A session synced against the evolved graph is stale for the
        # earlier copy: the revision it remembers lies in the copy's future.
        with pytest.raises(TimingGraphError, match="stale session"):
            stale_copy.changes_since(timer.revision)

    def test_journal_overflow_falls_back_to_full(self, c17_graph):
        graph = c17_graph
        small = TimingGraph(graph.name, graph.num_locals, journal_limit=8)
        for vertex in graph.inputs:
            small.mark_input(vertex)
        for vertex in graph.outputs:
            small.mark_output(vertex)
        for edge in graph.edges:
            small.add_edge(edge.source, edge.sink, edge.delay)
        timer = IncrementalTimer(small, required_time=_constraint(small))
        timer.update()
        rng = random.Random(3)
        for _unused in range(30):  # far beyond the retained window
            edge = rng.choice(small.edges)
            small.replace_edge_delay(edge, edge.delay.scale(rng.uniform(0.9, 1.1)))
        stats = timer.update()
        assert stats.mode == "full"
        _assert_parity(timer, small, "overflow")

    def test_reduction_coalesces_through_session(self, c17_graph):
        graph = c17_graph.copy()
        timer = IncrementalTimer(graph, required_time=_constraint(graph))
        timer.update()
        reduce_graph(graph)
        stats = timer.update()  # the whole fixpoint is one coalesced window
        assert stats.mode == "incremental"
        assert timer.revision == graph.revision
        _assert_parity(timer, graph, "reduction")

    def test_one_shot_array_views_do_not_enable_journaling(self):
        from repro.timing.arrays import GraphArrays

        graph = _small_diamond()
        GraphArrays.from_graph(graph)  # e.g. corner STA / Monte Carlo view
        base = graph.revision
        edge = graph.edges[0]
        graph.replace_edge_delay(edge, edge.delay.scale(1.1))
        # No incremental consumer attached: history is not retained.
        assert graph.changes_since(base) is None
        # A session attach turns journaling on from that point.
        timer = IncrementalTimer(graph)
        base = graph.revision
        graph.replace_edge_delay(edge, edge.delay.scale(1.1))
        assert graph.changes_since(base).retimed_edges == (edge.edge_id,)
        timer.update()


class TestCycleMidUpdate:
    def test_cycle_writes_no_state_and_keeps_the_queued_cones(self, c432_graph):
        graph = c432_graph.copy()
        timer = IncrementalTimer(graph, required_time=_constraint(graph))
        timer.update()
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
        graph.replace_edge_delay(edge, edge.delay.scale(1.3))

        # 2. Cut a vertex outside the cycle off from its fanin: a dirty
        #    row that folds no edge and whose time would move.
        cut = next(
            v for v in order
            if graph.fanin_edges(v) and v not in ancestors and v != last
        )
        for fanin in graph.fanin_edges(cut):
            graph.remove_edge(fanin)

        # 3. A back edge from the last topological vertex to a middle
        #    vertex that reaches it closes a cycle.
        back = graph.add_edge(last, middle, CanonicalForm(1.0, 0.0, None, 0.0))

        # 4. The update raises before writing any state.
        states = {"fwd": timer._fwd, "bwd": timer._bwd}
        before = {
            (tag, name): getattr(state, name).copy()
            for tag, state in states.items()
            for name in state.__slots__
        }
        with pytest.raises(TimingGraphError, match="cycle"):
            timer.update()
        for (tag, name), array in before.items():
            np.testing.assert_array_equal(
                getattr(states[tag], name), array, err_msg="%s.%s" % (tag, name)
            )

        # 5. Without the back edge the queued cones are recomputed.
        graph.remove_edge(back)
        assert timer.update().mode == "incremental"
        _assert_parity(timer, graph, "after the cycle")


class TestCornerStaSessionReuse:
    def test_corner_sta_accepts_session(self, edit_graph):
        graph = edit_graph
        timer = IncrementalTimer(graph)
        timer.update()
        edge = graph.edges[0]
        graph.replace_edge_delay(edge, edge.delay.scale(1.3))
        from_session = corner_sta(timer=timer, sigma_corner=3.0)
        from_scratch = corner_sta(graph, sigma_corner=3.0)
        assert from_session.nominal == pytest.approx(from_scratch.nominal, rel=1e-12)
        assert from_session.worst == pytest.approx(from_scratch.worst, rel=1e-12)
        assert from_session.best == pytest.approx(from_scratch.best, rel=1e-12)

    def test_corner_sta_sync_defers_statistical_work(self):
        # A structure-only sync must not run the statistical passes even
        # when the window forces a rebuild (journal overflow): the cached
        # state is dropped and the next timing query repropagates.
        graph = _small_diamond()
        small = TimingGraph(graph.name, 0, journal_limit=4)
        small.mark_input("a")
        small.mark_output("z")
        for edge in graph.edges:
            small.add_edge(edge.source, edge.sink, edge.delay)
        timer = IncrementalTimer(small)
        timer.update()
        rng = random.Random(1)
        for _unused in range(12):  # overflow the tiny journal
            edge = rng.choice(small.edges)
            small.replace_edge_delay(edge, edge.delay.scale(rng.uniform(0.9, 1.1)))
        report = corner_sta(timer=timer)
        assert timer._fwd is None  # state dropped, not repropagated
        assert report.worst == pytest.approx(corner_sta(small).worst, rel=1e-12)
        stats = timer.update()  # next timing sync rebuilds the state
        assert stats.mode == "full"
        _assert_parity(timer, small, "post-sync rebuild")

    def test_corner_sta_rejects_mismatched_graph(self, edit_graph):
        timer = IncrementalTimer(edit_graph)
        with pytest.raises(TimingGraphError):
            corner_sta(_small_diamond(), timer=timer)

    def test_corner_sta_requires_some_input(self):
        with pytest.raises(TimingGraphError):
            corner_sta()


class TestDirtySweepParity:
    """Dirty sweeps through deep, narrow cones and whole-graph wide levels."""

    @staticmethod
    def _deep_chain(stages: int = 60, width: int = 2) -> TimingGraph:
        graph = TimingGraph("chain", 1)
        graph.mark_input("v0_0")
        previous = ["v0_0"]
        rng = random.Random(9)
        for stage in range(1, stages):
            current = ["v%d_%d" % (stage, lane) for lane in range(width)]
            for sink in current:
                for source in previous:
                    graph.add_edge(
                        source, sink,
                        CanonicalForm(rng.uniform(5.0, 15.0), 0.3, [0.1], 0.2),
                    )
            previous = current
        for sink in previous:
            graph.mark_output(sink)
        return graph

    def test_near_input_retime_sweeps_the_deep_chain(self):
        graph = self._deep_chain()
        timer = IncrementalTimer(graph, required_time=_constraint(graph))
        timer.update()
        edge = graph.edges[0]  # near-input edge: the cone spans every level
        graph.replace_edge_delay(edge, edge.delay.scale(1.2))
        stats = timer.update()
        # The cone is every vertex but the input and v1_1, the edge sink's
        # neighbour in its stage.
        assert stats.mode == "incremental"
        assert stats.forward_recomputed == graph.num_vertices - 2
        _assert_parity(timer, graph, "deep chain")

    def test_random_retimes_of_the_deep_chain(self):
        graph = self._deep_chain()
        timer = IncrementalTimer(graph, required_time=_constraint(graph))
        timer.update()
        rng = random.Random(13)
        for _unused in range(8):
            edge = rng.choice(graph.edges)
            graph.replace_edge_delay(edge, edge.delay.scale(rng.uniform(0.8, 1.2)))
            _assert_parity(timer, graph, "random retimes")

    def test_whole_graph_retime_sweeps_wide_levels(self, edit_graph):
        graph = edit_graph
        timer = IncrementalTimer(graph, required_time=_constraint(graph))
        timer.update()
        # Retime every edge: the dirty cone is every level, whole.
        for edge in graph.edges:
            graph.replace_edge_delay(edge, edge.delay.scale(1.01))
        assert timer.update().mode == "incremental"
        _assert_parity(timer, graph, "wide levels")


class TestNonFiniteSeedsRejected:
    def test_minus_infinity_input_rejected(self):
        graph = _small_diamond()
        masks = {"a": CanonicalForm.minus_infinity(0)}
        with pytest.raises(ValueError):
            IncrementalTimer(graph, input_arrivals=masks)


class TestRequiredTimes:
    """The backward state served by ``required_at`` / ``required_times``."""

    @staticmethod
    def _assert_required_match(timer: IncrementalTimer, graph: TimingGraph):
        reference = propagate_required_times_batch(
            graph, {name: timer.required_time for name in graph.outputs}
        )
        expected = reference.as_dict()
        served = timer.required_times()
        assert set(served) == set(expected)
        for vertex, form in expected.items():
            assert served[vertex] == form, vertex  # bitwise
            assert timer.required_at(vertex) == form, vertex

    def test_bitwise_equal_to_the_one_shot_pass(self, c432_graph):
        graph = c432_graph.copy()
        timer = IncrementalTimer(graph, required_time=_constraint(graph))
        self._assert_required_match(timer, graph)

        edge = graph.edges[len(graph.edges) // 2]
        graph.replace_edge_delay(edge, edge.delay.scale(1.3))
        self._assert_required_match(timer, graph)

        graph.remove_edge(graph.edges[len(graph.edges) // 3])
        self._assert_required_match(timer, graph)

    def test_no_path_to_an_output_has_no_required_time(self, c432_graph):
        graph = c432_graph.copy()
        timer = IncrementalTimer(graph, required_time=_constraint(graph))
        timer.update()
        graph.add_vertex("dangling")
        graph.add_edge(graph.inputs[0], "dangling", CanonicalForm(7.0, 0.2, None, 0.1))
        assert timer.required_at("dangling") is None
        assert "dangling" not in timer.required_times()
        assert timer.arrival_at("dangling") is not None
        self._assert_required_match(timer, graph)
