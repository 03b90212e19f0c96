"""Tests of the incremental Monte Carlo session.

A :class:`~repro.montecarlo.MonteCarloSession` patched through any journal
window must end up with exactly the sample matrix — and therefore exactly
the delay distribution — a cold session would draw from the edited graph:
the counter-based per-edge streams make warm and cold runs agree to
floating-point round-off (asserted at 1e-9 on randomized retime bursts and
structural edits over the c17/mult4/c432 acceptance circuits).
"""

import random

import numpy as np
import pytest

from repro.analysis.yield_analysis import monte_carlo_yield_curve
from repro.core.canonical import CanonicalForm
from repro.errors import TimingGraphError
from repro.montecarlo import flat
from repro.montecarlo.flat import MonteCarloSession, simulate_graph_delay
from repro.timing.graph import TimingGraph

PARITY = 1e-9
SAMPLES = 300


@pytest.fixture
def edit_graph(parity_module) -> TimingGraph:
    """A fresh mutable copy per test (copy() preserves edge ids)."""
    return parity_module[0].copy()


def _assert_warm_matches_cold(session: MonteCarloSession, graph: TimingGraph):
    """Returns the refresh kind the warm revalidation consumed."""
    warm = session.revalidate()
    kind = session.last_refresh.kind
    cold_session = MonteCarloSession(
        graph.copy(), num_samples=session.num_samples, seed=session.seed
    )
    cold = cold_session.revalidate()
    worst = float(np.abs(warm.samples - cold.samples).max())
    assert worst <= PARITY, "warm session deviates from cold by %.3e" % worst
    matrix_gap = float(
        np.abs(session.edge_delay_samples - cold_session.edge_delay_samples).max()
    )
    assert matrix_gap <= PARITY
    return kind


def _assert_warm_is_full_repropagation(session: MonteCarloSession):
    """The warm cone repropagation equals a full one of the same matrix.

    Bit for bit, on the arrival cache and the samples: unlike a cold
    session, which samples its matrix through BLAS products of other
    shapes, the full kernel here reads the session's own matrix.
    """
    samples = session.revalidate().samples
    columns, _meta = session.snapshot_state()
    arrays = session.arrays
    full = flat._longest_paths_levelized(
        arrays, session.edge_delay_samples, arrays.input_rows
    )
    assert np.array_equal(columns["mc.arrivals"], full)
    assert np.array_equal(samples, full[arrays.output_rows].max(axis=0))


class TestSessionLifecycle:
    def test_initial_result_matches_distribution(self, parity_module):
        graph = parity_module[0].copy()
        session = MonteCarloSession(graph, num_samples=1000, seed=5)
        result = session.revalidate()
        oneshot = simulate_graph_delay(graph, 1000, seed=5)
        # Different stream layouts: agreement is statistical, not bitwise.
        assert result.mean == pytest.approx(oneshot.mean, rel=0.05)
        assert result.std == pytest.approx(oneshot.std, rel=0.3)

    def test_noop_returns_cached_result(self, edit_graph):
        session = MonteCarloSession(edit_graph, num_samples=SAMPLES, seed=1)
        first = session.revalidate()
        again = session.revalidate()
        assert again is first
        assert session.last_refresh.kind == "noop"

    def test_requires_io_and_positive_samples(self):
        graph = TimingGraph("no_io")
        graph.add_edge("a", "b", CanonicalForm.constant(1.0))
        with pytest.raises(TimingGraphError):
            MonteCarloSession(graph)
        graph.mark_input("a")
        graph.mark_output("b")
        with pytest.raises(ValueError):
            MonteCarloSession(graph, num_samples=0)

    def test_chunk_size_does_not_change_session_samples(self, edit_graph, mc_chunk):
        wide = MonteCarloSession(edit_graph, num_samples=SAMPLES, seed=3)
        wide_samples = wide.revalidate().samples
        mc_chunk(edit_graph, 128)
        narrow = MonteCarloSession(edit_graph, num_samples=SAMPLES, seed=3)
        assert np.array_equal(wide_samples, narrow.revalidate().samples)


class TestRetimeParity:
    def test_randomized_retime_bursts_match_cold(self, edit_graph):
        rng = random.Random(7)
        session = MonteCarloSession(edit_graph, num_samples=SAMPLES, seed=2)
        session.revalidate()
        for burst in range(4):
            for _unused in range(rng.randrange(1, 4)):
                edge = rng.choice(edit_graph.edges)
                edit_graph.replace_edge_delay(
                    edge, edge.delay.scale(rng.uniform(0.7, 1.3))
                )
            assert _assert_warm_matches_cold(session, edit_graph) == "rows"
            _assert_warm_is_full_repropagation(session)

    def test_retimed_fanin_of_an_input_keeps_its_seed(self):
        # Input ``b`` also has fanin: the dirty-cone sweep must refold its
        # arrival as the larger of its 0.0 seed and the retimed ``a -> b``.
        graph = TimingGraph("seeded_fanin", 1)
        for name in ("a", "b"):
            graph.mark_input(name)
        graph.mark_output("z")
        fanin = graph.add_edge("a", "b", CanonicalForm(10.0, 1.0, [0.5], 1.0))
        graph.add_edge("b", "c", CanonicalForm(10.0, 1.0, [0.5], 1.0))
        graph.add_edge("a", "c", CanonicalForm(15.0, 1.0, [0.5], 1.0))
        graph.add_edge("c", "z", CanonicalForm(4.0, 0.5, [0.2], 0.5))
        session = MonteCarloSession(graph, num_samples=SAMPLES, seed=6)
        session.revalidate()
        original = fanin.delay
        for factor in (0.05, 0.5, 1.5):
            graph.replace_edge_delay(fanin, original.scale(factor))
            assert _assert_warm_matches_cold(session, graph) == "rows"
            _assert_warm_is_full_repropagation(session)

    def test_retime_parity_without_arrival_cache(self, edit_graph, monkeypatch):
        monkeypatch.setattr(flat, "MC_ARRIVALS_CACHE_MAX_FLOATS", 0)
        session = MonteCarloSession(edit_graph, num_samples=SAMPLES, seed=2)
        session.revalidate()
        assert session.nbytes_report()["arrival_cache"] == 0
        edge = edit_graph.edges[len(edit_graph.edges) // 2]
        edit_graph.replace_edge_delay(edge, edge.delay.scale(1.2))
        _assert_warm_matches_cold(session, edit_graph)

    def test_only_retimed_rows_resampled(self, edit_graph):
        session = MonteCarloSession(edit_graph, num_samples=SAMPLES, seed=4)
        before = session.edge_delay_samples.copy()
        edges = [edit_graph.edges[0], edit_graph.edges[-1]]
        for edge in edges:
            edit_graph.replace_edge_delay(edge, edge.delay.scale(1.1))
        refresh = session.refresh()
        assert refresh.kind == "rows"
        assert refresh.resampled_rows == len(edges)
        rows = [session.arrays.edge_rows[edge.edge_id] for edge in edges]
        untouched = np.ones(before.shape[0], dtype=bool)
        untouched[rows] = False
        assert np.array_equal(
            session.edge_delay_samples[untouched], before[untouched]
        )
        assert not np.allclose(session.edge_delay_samples[rows], before[rows])


class TestStructuralParity:
    def test_remove_and_add_edges_match_cold(self, edit_graph):
        rng = random.Random(11)
        session = MonteCarloSession(edit_graph, num_samples=SAMPLES, seed=6)
        session.revalidate()
        edit_graph.remove_edge(rng.choice(edit_graph.edges))
        order = edit_graph.topological_order()
        i = rng.randrange(0, len(order) - 1)
        j = rng.randrange(i + 1, len(order))
        edit_graph.add_edge(
            order[i], order[j], CanonicalForm(9.0, 0.5, None, 0.25)
        )
        assert _assert_warm_matches_cold(session, edit_graph) == "structure"
        # A retime right after the structural window is warm again.
        edge = edit_graph.edges[0]
        edit_graph.replace_edge_delay(edge, edge.delay.scale(1.05))
        assert _assert_warm_matches_cold(session, edit_graph) == "rows"

    def test_io_change_falls_back_to_full_resample(self, edit_graph):
        session = MonteCarloSession(edit_graph, num_samples=SAMPLES, seed=8)
        session.revalidate()
        internal = next(
            name
            for name in edit_graph.topological_order()
            if not edit_graph.is_output(name) and edit_graph.fanin_edges(name)
        )
        edit_graph.mark_output(internal)
        assert _assert_warm_matches_cold(session, edit_graph) == "full"


class TestYieldRouting:
    def test_yield_curve_from_graph_and_session(self, adder_graph):
        from_graph = monte_carlo_yield_curve(adder_graph, num_samples=400, seed=3)
        session = MonteCarloSession(adder_graph, num_samples=400, seed=3)
        from_session = monte_carlo_yield_curve(session)
        for curve in (from_graph, from_session):
            assert curve.yields[0] == pytest.approx(0.0, abs=0.01)
            assert curve.yields[-1] == pytest.approx(1.0, abs=0.01)
            assert np.all(np.diff(curve.yields) >= 0.0)
        result = session.revalidate()
        from_result = monte_carlo_yield_curve(result)
        assert np.array_equal(from_session.yields, from_result.yields)


class TestDesignTimerRevalidation:
    @pytest.fixture(scope="class")
    def quad_design(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.figure7 import (
            build_multiplier_design,
            build_multiplier_module,
        )

        config = ExperimentConfig(monte_carlo_samples=200)
        module = build_multiplier_module(bits=2, config=config)
        return module, build_multiplier_design(module)

    def test_noop_and_delay_only_revalidation(self, quad_design):
        from repro.hier.analysis import DesignTimer
        from repro.montecarlo.hierarchical import build_flat_timing_graph
        from repro.placement.placer import Placement

        module, design = quad_design
        timer = DesignTimer(design)
        first = timer.revalidate_monte_carlo(num_samples=200, seed=5)
        assert timer.monte_carlo_session is not None
        again = timer.revalidate_monte_carlo(num_samples=200, seed=5)
        assert again is first

        # Same model, gates shifted by one grid pitch: the re-flattened
        # graph keeps its structure, only delays move -> warm retimes.
        pitch = module.variation.partition.grid_size
        shifted = Placement(
            module.placement.die,
            {
                name: (min(x + pitch, module.placement.die.width), y)
                for name, (x, y) in module.placement.locations.items()
            },
        )
        timer.swap_instance_model(
            "m0_1", module.model, netlist=module.netlist, placement=shifted
        )
        warm = timer.revalidate_monte_carlo(num_samples=200, seed=5)
        assert timer.monte_carlo_session.last_refresh.kind in ("rows", "noop")
        cold = MonteCarloSession(
            build_flat_timing_graph(design), num_samples=200, seed=5
        ).revalidate()
        assert float(np.abs(warm.samples - cold.samples).max()) <= PARITY

    def test_changed_parameters_rebind_a_fresh_session(self, quad_design):
        from repro.hier.analysis import DesignTimer

        _module, design = quad_design
        timer = DesignTimer(design)
        first = timer.revalidate_monte_carlo(num_samples=120, seed=5)
        session = timer.monte_carlo_session
        other = timer.revalidate_monte_carlo(num_samples=120, seed=6)
        assert timer.monte_carlo_session is not session
        assert not np.array_equal(first.samples, other.samples)


class TestMemoryReport:
    def test_nbytes_report_tracks_session_caches(self, adder_graph):
        session = MonteCarloSession(adder_graph, num_samples=64, seed=3)
        before = session.nbytes_report()
        assert before["delay_samples"] > 0
        assert before["arrival_cache"] == 0
        assert before["graph_arrays"] > 0
        assert before["total"] == sum(
            value for key, value in before.items() if key != "total"
        )
        session.revalidate()
        after = session.nbytes_report()
        assert after["arrival_cache"] > 0
        assert after["total"] > before["total"]
