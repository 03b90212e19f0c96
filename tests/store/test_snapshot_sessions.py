"""Warm-start parity of the session snapshots (timer/allpairs/MC/extraction).

The acceptance property of the store: a process that saves a session,
dies and warm-starts answers every query **bit-identically**
(``==`` on canonical forms, ``np.array_equal`` on sample matrices) to a
process that never restarted — including when the graph kept evolving
between the snapshot and the load, in which case the journal window
replays through the sessions' ordinary refresh paths.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core.canonical import CanonicalForm
from repro.errors import StoreCorruptError, StoreKeyError, StoreReplayError
from repro.model.extraction import ExtractionSession
from repro.montecarlo.flat import MonteCarloSession
from repro.store import (
    graph_columns,
    graph_from_columns,
    graph_meta,
    load_allpairs_session,
    load_extraction_session,
    load_incremental_timer,
    load_montecarlo_session,
    save_allpairs_session,
    save_extraction_session,
    save_incremental_timer,
    save_montecarlo_session,
)
from repro.store.format import read_entry, write_entry
from repro.timing.allpairs import AllPairsSession
from repro.timing.graph import TimingGraph
from repro.timing.incremental import IncrementalTimer

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


def _diamond_graph(name="diamond", journal_limit=None):
    """A small deterministic graph with reconvergent fanout (2 locals)."""
    kwargs = {} if journal_limit is None else {"journal_limit": journal_limit}
    graph = TimingGraph(name, 2, **kwargs)
    graph.mark_input("a")
    graph.mark_input("b")
    graph.mark_output("z")
    graph.add_edge("a", "m", CanonicalForm(10.0, 0.5, np.array([0.2, 0.1]), 0.3))
    graph.add_edge("b", "m", CanonicalForm(8.0, 0.3, np.array([0.1, 0.2]), 0.2))
    graph.add_edge("m", "z", CanonicalForm(4.0, 0.1, np.array([0.05, 0.05]), 0.1))
    graph.add_edge("a", "z", CanonicalForm(12.0, 0.2, np.array([0.1, 0.0]), 0.15))
    return graph


def _retime(graph, index, factor):
    edge = graph.edges[index]
    graph.replace_edge_delay(edge, edge.delay.scale(factor))


# ----------------------------------------------------------------------
# Graph column round trip
# ----------------------------------------------------------------------
class TestGraphColumns:
    def test_round_trip_preserves_everything(self, tiny_graph):
        graph = tiny_graph.copy()
        _retime(graph, 2, 1.2)  # a non-trivial revision history
        rebuilt = graph_from_columns(graph_columns(graph), graph_meta(graph))
        assert rebuilt.name == graph.name
        assert rebuilt.num_locals == graph.num_locals
        assert list(rebuilt.vertices) == list(graph.vertices)
        assert list(rebuilt.inputs) == list(graph.inputs)
        assert list(rebuilt.outputs) == list(graph.outputs)
        assert rebuilt.revision == graph.revision
        for original, copy in zip(graph.edges, rebuilt.edges):
            assert copy.edge_id == original.edge_id
            assert copy.source == original.source
            assert copy.sink == original.sink
            assert copy.delay == original.delay

    def test_rebuilt_graph_continues_the_id_sequence(self, tiny_graph):
        graph = tiny_graph.copy()
        rebuilt = graph_from_columns(graph_columns(graph), graph_meta(graph))
        a = graph.add_edge(graph.inputs[0], graph.outputs[0],
                           CanonicalForm(1.0, 0.1, None, 0.1))
        b = rebuilt.add_edge(rebuilt.inputs[0], rebuilt.outputs[0],
                             CanonicalForm(1.0, 0.1, None, 0.1))
        assert a.edge_id == b.edge_id

    def test_ragged_local_widths_survive(self):
        # Edges carrying fewer locals than the graph declares must come
        # back at their true width, not padded to the maximum.
        graph = _diamond_graph()
        graph.add_edge("b", "z", CanonicalForm(6.0, 0.2, np.array([0.3]), 0.1))
        graph.add_edge("m", "z", CanonicalForm(5.0, 0.2, None, 0.1))
        rebuilt = graph_from_columns(graph_columns(graph), graph_meta(graph))
        for original, copy in zip(graph.edges, rebuilt.edges):
            assert copy.delay.num_locals == original.delay.num_locals
            assert copy.delay == original.delay

    def test_missing_column_is_corruption(self):
        graph = _diamond_graph()
        columns = graph_columns(graph)
        del columns["graph.edge_coeffs"]
        with pytest.raises(StoreCorruptError):
            graph_from_columns(columns, graph_meta(graph))


# ----------------------------------------------------------------------
# IncrementalTimer
# ----------------------------------------------------------------------
class TestIncrementalTimer:
    def test_cold_load_rebuilds_graph_and_answers(self, tmp_path):
        graph = _diamond_graph()
        timer = IncrementalTimer(graph, convergence_tolerance=0.0)
        delay = timer.circuit_delay()
        save_incremental_timer(timer, tmp_path / "t.npz")
        loaded = load_incremental_timer(tmp_path / "t.npz")
        assert loaded.graph is not graph
        assert loaded.graph.revision == graph.revision
        assert loaded.circuit_delay() == delay
        assert loaded.store_fallback_reason is None

    def test_warm_replay_matches_never_restarted_session(self, tmp_path):
        graph = _diamond_graph()
        timer = IncrementalTimer(graph)
        timer.circuit_delay()
        save_incremental_timer(timer, tmp_path / "t.npz")
        # The graph keeps evolving after the snapshot ...
        _retime(graph, 0, 1.3)
        graph.add_edge("b", "z", CanonicalForm(20.0, 0.4, np.array([0.2, 0.2]), 0.2))
        _retime(graph, 1, 0.8)
        reference = timer.circuit_delay()  # the never-restarted answer
        # ... and the loaded session replays the journal window.
        loaded = load_incremental_timer(tmp_path / "t.npz", graph=graph)
        assert loaded.circuit_delay() == reference
        assert loaded.store_fallback_reason is None

    def test_save_load_methods_round_trip(self, tmp_path):
        graph = _diamond_graph()
        timer = IncrementalTimer(graph)
        delay = timer.circuit_delay()
        timer.save(tmp_path / "t.npz")
        assert IncrementalTimer.load(tmp_path / "t.npz").circuit_delay() == delay

    def test_graph_name_mismatch_is_a_key_error(self, tmp_path):
        timer = IncrementalTimer(_diamond_graph())
        save_incremental_timer(timer, tmp_path / "t.npz")
        with pytest.raises(StoreKeyError, match="'diamond'"):
            load_incremental_timer(
                tmp_path / "t.npz", graph=_diamond_graph(name="other")
            )

    def test_stale_graph_behind_the_snapshot_is_a_key_error(self, tmp_path):
        graph = _diamond_graph()
        timer = IncrementalTimer(graph)
        _retime(graph, 0, 1.1)  # entry revision > a fresh build's revision
        timer.circuit_delay()
        save_incremental_timer(timer, tmp_path / "t.npz")
        with pytest.raises(StoreKeyError, match="lineage"):
            load_incremental_timer(tmp_path / "t.npz", graph=_diamond_graph())

    def test_journal_overflow_raises_by_default(self, tmp_path):
        graph = _diamond_graph(journal_limit=2)
        timer = IncrementalTimer(graph)
        timer.circuit_delay()
        save_incremental_timer(timer, tmp_path / "t.npz")
        for _unused in range(5):  # blow the 2-entry journal
            _retime(graph, 0, 1.01)
        with pytest.raises(StoreReplayError, match="rebuild"):
            load_incremental_timer(tmp_path / "t.npz", graph=graph)

    def test_overflow_rebuild_is_explicit_never_silent(self, tmp_path):
        graph = _diamond_graph(journal_limit=2)
        timer = IncrementalTimer(graph)
        timer.circuit_delay()
        save_incremental_timer(timer, tmp_path / "t.npz")
        for _unused in range(5):
            _retime(graph, 0, 1.01)
        reference = timer.circuit_delay()
        loaded = load_incremental_timer(
            tmp_path / "t.npz", graph=graph, on_overflow="rebuild"
        )
        # The cold fallback still answers correctly — and says it is one.
        assert loaded.circuit_delay() == reference
        assert loaded.store_fallback_reason is not None
        assert "cannot replay" in loaded.store_fallback_reason

    def test_invalid_overflow_mode_rejected(self, tmp_path):
        timer = IncrementalTimer(_diamond_graph())
        save_incremental_timer(timer, tmp_path / "t.npz")
        with pytest.raises(ValueError, match="on_overflow"):
            load_incremental_timer(tmp_path / "t.npz", on_overflow="ignore")

    def test_truncated_entry_is_corruption_not_a_cold_fallback(self, tmp_path):
        timer = IncrementalTimer(_diamond_graph())
        save_incremental_timer(timer, tmp_path / "t.npz")
        data = (tmp_path / "t.npz").read_bytes()
        (tmp_path / "t.npz").write_bytes(data[: len(data) // 3])
        with pytest.raises(StoreCorruptError):
            load_incremental_timer(tmp_path / "t.npz", on_overflow="rebuild")

    def test_kind_mismatch_across_session_types(self, tmp_path):
        # A timer entry fed to the Monte Carlo loader is a key error, not
        # a mis-parse.
        timer = IncrementalTimer(_diamond_graph())
        save_incremental_timer(timer, tmp_path / "t.npz")
        with pytest.raises(StoreKeyError, match="'timer'"):
            load_montecarlo_session(tmp_path / "t.npz")

    def test_constraints_survive_the_round_trip(self, tmp_path):
        graph = _diamond_graph()
        timer = IncrementalTimer(
            graph,
            input_arrivals={"a": CanonicalForm(2.0, 0.1, np.array([0.1, 0.0]), 0.05)},
            required_time=CanonicalForm(30.0, 0.0, None, 0.0),
            convergence_tolerance=1e-12,
        )
        timer.circuit_delay()
        slacks = timer.slacks()
        save_incremental_timer(timer, tmp_path / "t.npz")
        loaded = load_incremental_timer(tmp_path / "t.npz")
        assert loaded.circuit_delay() == timer.circuit_delay()
        assert loaded.slacks() == slacks


# ----------------------------------------------------------------------
# AllPairsSession
# ----------------------------------------------------------------------
class TestAllPairsSession:
    def test_cold_load_matrices_are_bit_identical(self, tmp_path):
        graph = _diamond_graph()
        session = AllPairsSession(graph)
        session.refresh()
        save_allpairs_session(session, tmp_path / "ap.npz")
        loaded = load_allpairs_session(tmp_path / "ap.npz")
        assert np.array_equal(loaded.state.matrix_mean, session.state.matrix_mean)
        assert np.array_equal(loaded.state.matrix_valid, session.state.matrix_valid)
        assert loaded.store_fallback_reason is None

    def test_warm_replay_matches_never_restarted_session(self, tmp_path):
        graph = _diamond_graph()
        session = AllPairsSession(graph)
        session.refresh()
        save_allpairs_session(session, tmp_path / "ap.npz")
        _retime(graph, 3, 1.4)
        session.refresh()
        loaded = load_allpairs_session(tmp_path / "ap.npz", graph=graph)
        loaded.refresh()
        assert np.array_equal(loaded.state.matrix_mean, session.state.matrix_mean)

    def test_save_load_methods_round_trip(self, tmp_path):
        graph = _diamond_graph()
        session = AllPairsSession(graph)
        session.save(tmp_path / "ap.npz")
        loaded = AllPairsSession.load(tmp_path / "ap.npz")
        assert np.array_equal(loaded.state.matrix_mean, session.state.matrix_mean)


# ----------------------------------------------------------------------
# MonteCarloSession
# ----------------------------------------------------------------------
class TestMonteCarloSession:
    def test_cold_load_samples_are_bit_identical(self, tmp_path):
        graph = _diamond_graph()
        session = MonteCarloSession(graph, num_samples=256, seed=5, chunk_size=128)
        result = session.revalidate()
        save_montecarlo_session(session, tmp_path / "mc.npz")
        loaded = load_montecarlo_session(tmp_path / "mc.npz")
        assert np.array_equal(loaded.revalidate().samples, result.samples)
        assert loaded.store_fallback_reason is None

    def test_warm_replay_matches_never_restarted_session(self, tmp_path):
        graph = _diamond_graph()
        session = MonteCarloSession(graph, num_samples=256, seed=5, chunk_size=128)
        session.revalidate()
        save_montecarlo_session(session, tmp_path / "mc.npz")
        # Post-snapshot retime: the warm load must redraw exactly the rows
        # a never-restarted session redraws (counter-based streams).
        _retime(graph, 2, 1.25)
        reference = session.revalidate()
        loaded = load_montecarlo_session(tmp_path / "mc.npz", graph=graph)
        assert np.array_equal(loaded.revalidate().samples, reference.samples)

    def test_save_load_methods_round_trip(self, tmp_path):
        graph = _diamond_graph()
        session = MonteCarloSession(graph, num_samples=64, seed=9)
        result = session.revalidate()
        session.save(tmp_path / "mc.npz")
        loaded = MonteCarloSession.load(tmp_path / "mc.npz")
        assert np.array_equal(loaded.revalidate().samples, result.samples)


# ----------------------------------------------------------------------
# ExtractionSession
# ----------------------------------------------------------------------
class TestExtractionSession:
    def test_cold_load_re_extracts_the_same_model(
        self, tmp_path, random_graph_and_variation
    ):
        graph, variation = random_graph_and_variation
        session = ExtractionSession(graph, variation)
        model = session.extract(0.1)
        save_extraction_session(session, tmp_path / "x.npz")
        loaded = load_extraction_session(tmp_path / "x.npz")
        rebuilt = loaded.extract(0.1)
        assert rebuilt.graph.num_edges == model.graph.num_edges
        for original, copy in zip(model.graph.edges, rebuilt.graph.edges):
            assert copy.delay == original.delay
        assert loaded.store_fallback_reason is None

    def test_warm_replay_matches_never_restarted_session(
        self, tmp_path, random_graph_and_variation
    ):
        graph, variation = random_graph_and_variation
        session = ExtractionSession(graph, variation)
        session.extract(0.1)
        save_extraction_session(session, tmp_path / "x.npz")
        _retime(graph, 7, 1.5)
        reference = session.extract(0.1)
        loaded = load_extraction_session(tmp_path / "x.npz", graph=graph)
        rebuilt = loaded.extract(0.1)
        assert rebuilt.graph.num_edges == reference.graph.num_edges
        for original, copy in zip(reference.graph.edges, rebuilt.graph.edges):
            assert copy.delay == original.delay

    def test_criticality_cache_survives_with_argmax(
        self, tmp_path, random_graph_and_variation
    ):
        graph, variation = random_graph_and_variation
        session = ExtractionSession(graph, variation)
        session.save(tmp_path / "x.npz")
        loaded = ExtractionSession.load(tmp_path / "x.npz")
        assert loaded.criticalities.max_criticality == (
            session.criticalities.max_criticality
        )
        assert loaded.criticalities.argmax_pairs == (
            session.criticalities.argmax_pairs
        )


    def test_entry_with_an_engine_key_loads_warm(
        self, tmp_path, random_graph_and_variation
    ):
        # Entries written while sessions still took a criticality engine
        # carry "engine" in their session meta; loading ignores the key.
        graph, variation = random_graph_and_variation
        session = ExtractionSession(graph, variation)
        path = save_extraction_session(session, tmp_path / "x.npz")
        entry = read_entry(path)
        assert "engine" not in entry.meta["session"]
        meta = dict(entry.meta, session=dict(entry.meta["session"], engine="scalar"))
        write_entry(
            path, entry.kind, entry.graph_id, entry.revision, entry.columns, meta=meta
        )
        _retime(graph, 7, 1.5)
        reference = session.extract(0.1)
        loaded = load_extraction_session(path, graph=graph)
        assert loaded.store_fallback_reason is None
        rebuilt = loaded.extract(0.1)
        assert rebuilt.stats == reference.stats
        assert [(e.source, e.sink, e.delay) for e in rebuilt.graph.edges] == [
            (e.source, e.sink, e.delay) for e in reference.graph.edges
        ]


# ----------------------------------------------------------------------
# Cross-process warm start
# ----------------------------------------------------------------------
def test_warm_start_in_a_fresh_process_matches_a_fresh_build(tmp_path):
    """The restart story end to end: save here, warm-start over there.

    The parent saves a timer and a Monte Carlo session; a fresh
    interpreter rebuilds the same deterministic graph, attaches the saved
    entries warm and must answer bit-identically to sessions it builds
    from scratch — across a real process boundary, not just an object
    boundary.
    """
    graph = _diamond_graph()
    timer = IncrementalTimer(graph)
    timer.circuit_delay()
    save_incremental_timer(timer, tmp_path / "timer.npz")
    mc = MonteCarloSession(graph, num_samples=128, seed=3, chunk_size=64)
    mc.revalidate()
    save_montecarlo_session(mc, tmp_path / "mc.npz")

    script = tmp_path / "warm_start_check.py"
    script.write_text(
        textwrap.dedent(
            """
            import sys
            sys.path.insert(0, %r)

            import numpy as np

            from repro.core.canonical import CanonicalForm
            from repro.montecarlo.flat import MonteCarloSession
            from repro.store import load_incremental_timer, load_montecarlo_session
            from repro.timing.graph import TimingGraph
            from repro.timing.incremental import IncrementalTimer


            def build_graph():
                graph = TimingGraph("diamond", 2)
                graph.mark_input("a")
                graph.mark_input("b")
                graph.mark_output("z")
                graph.add_edge("a", "m", CanonicalForm(10.0, 0.5, np.array([0.2, 0.1]), 0.3))
                graph.add_edge("b", "m", CanonicalForm(8.0, 0.3, np.array([0.1, 0.2]), 0.2))
                graph.add_edge("m", "z", CanonicalForm(4.0, 0.1, np.array([0.05, 0.05]), 0.1))
                graph.add_edge("a", "z", CanonicalForm(12.0, 0.2, np.array([0.1, 0.0]), 0.15))
                return graph


            def main():
                graph = build_graph()
                warm_timer = load_incremental_timer(%r, graph=graph)
                fresh_timer = IncrementalTimer(build_graph())
                assert warm_timer.circuit_delay() == fresh_timer.circuit_delay()
                assert warm_timer.store_fallback_reason is None

                warm_mc = load_montecarlo_session(%r, graph=graph)
                fresh_mc = MonteCarloSession(
                    build_graph(), num_samples=128, seed=3, chunk_size=64
                )
                assert np.array_equal(
                    warm_mc.revalidate().samples, fresh_mc.revalidate().samples
                )


            if __name__ == "__main__":
                main()
            """
            % (SRC_DIR, str(tmp_path / "timer.npz"), str(tmp_path / "mc.npz"))
        )
    )
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert completed.returncode == 0, completed.stderr
    assert "Traceback" not in completed.stderr, completed.stderr
