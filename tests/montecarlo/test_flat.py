"""Tests of the vectorized Monte Carlo simulator."""

import numpy as np
import pytest

from repro.core.canonical import CanonicalForm
from repro.errors import TimingGraphError
from repro.montecarlo.flat import simulate_graph_delay, simulate_io_delays
from repro.timing.allpairs import AllPairsTiming
from repro.timing.graph import TimingGraph
from repro.timing.propagation import circuit_delay


def _deterministic_graph() -> TimingGraph:
    graph = TimingGraph("det")
    graph.mark_input("a")
    graph.mark_output("z")
    graph.add_edge("a", "m", CanonicalForm.constant(10.0))
    graph.add_edge("m", "z", CanonicalForm.constant(5.0))
    graph.add_edge("a", "z", CanonicalForm.constant(12.0))
    return graph


class TestSimulateGraphDelay:
    def test_deterministic_graph_has_zero_spread(self):
        result = simulate_graph_delay(_deterministic_graph(), num_samples=100, seed=0)
        assert result.mean == pytest.approx(15.0)
        assert result.std == pytest.approx(0.0)
        assert result.num_samples == 100

    def test_requires_io(self):
        graph = TimingGraph("no_io")
        graph.add_edge("a", "b", CanonicalForm.constant(1.0))
        with pytest.raises(TimingGraphError):
            simulate_graph_delay(graph, 10)

    def test_invalid_sample_count(self):
        with pytest.raises(ValueError):
            simulate_graph_delay(_deterministic_graph(), 0)

    def test_reproducible_with_seed(self, adder_graph):
        a = simulate_graph_delay(adder_graph, 500, seed=7)
        b = simulate_graph_delay(adder_graph, 500, seed=7)
        assert np.array_equal(a.samples, b.samples)

    def test_chunking_does_not_change_samples(self, adder_graph, mc_chunk):
        mc_chunk(adder_graph, 1024)  # one chunk of all 1000 samples
        whole = simulate_graph_delay(adder_graph, 1000, seed=3)
        mc_chunk(adder_graph, 128)
        chunked = simulate_graph_delay(adder_graph, 1000, seed=3)
        # Sampling is counter-based per block: chunking is bit-invariant.
        assert np.array_equal(whole.samples, chunked.samples)

    def test_matches_ssta_moments(self, adder_graph):
        result = simulate_graph_delay(adder_graph, 4000, seed=1)
        analytical = circuit_delay(adder_graph)
        assert result.mean == pytest.approx(analytical.mean, rel=0.03)
        assert result.std == pytest.approx(analytical.std, rel=0.15)

    def test_cdf_and_quantiles(self, adder_graph):
        result = simulate_graph_delay(adder_graph, 2000, seed=5)
        median = result.quantile(0.5)
        assert result.cdf(np.array([median]))[0] == pytest.approx(0.5, abs=0.02)
        counts, _edges = result.histogram(bins=20)
        assert counts.sum() == 2000


class TestSimulateIoDelays:
    def test_deterministic_values(self):
        stats = simulate_io_delays(_deterministic_graph(), num_samples=50, seed=0)
        assert stats.mean("a", "z") == pytest.approx(15.0)
        assert stats.std("a", "z") == pytest.approx(0.0)

    def test_unreachable_pairs_are_nan(self):
        graph = TimingGraph("partial")
        graph.mark_input("a")
        graph.mark_input("b")
        graph.mark_output("y")
        graph.mark_output("z")
        graph.add_edge("a", "y", CanonicalForm.constant(3.0))
        graph.add_edge("b", "z", CanonicalForm.constant(4.0))
        stats = simulate_io_delays(graph, num_samples=64, seed=0)
        assert np.isnan(stats.mean("a", "z"))
        assert stats.mean("b", "z") == pytest.approx(4.0)
        assert stats.valid[0, 0] and not stats.valid[0, 1]

    def test_matches_allpairs_ssta(self, adder_graph):
        stats = simulate_io_delays(adder_graph, num_samples=3000, seed=2)
        analysis = AllPairsTiming.analyze(adder_graph)
        mask = analysis.matrix_valid
        assert np.allclose(stats.means[mask], analysis.matrix_means()[mask], rtol=0.05)

    def test_chunked_runs_agree(self, adder_graph, io_group):
        io_group(adder_graph, "whole", 800, chunk=768)
        a = simulate_io_delays(adder_graph, 800, seed=9)
        io_group(adder_graph, "whole", 800)
        b = simulate_io_delays(adder_graph, 800, seed=9)
        # Sampling is counter-based per block and the per-block moment
        # partials fold in ascending block order: chunking is bit-invariant.
        assert np.array_equal(a.means, b.means, equal_nan=True)
        assert np.array_equal(a.stds, b.stds, equal_nan=True)
