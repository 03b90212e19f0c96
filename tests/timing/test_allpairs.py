"""Tests of the vectorized all-pairs input/output analysis."""

import numpy as np
import pytest

from repro.core.batch import clark_max_arrays
from repro.core.canonical import CanonicalForm
from repro.core.ops import statistical_max, statistical_sum
from repro.errors import TimingGraphError
from repro.montecarlo.flat import simulate_io_delays
from repro.timing.allpairs import AllPairsTiming
from repro.timing.arrays import GraphArrays
from repro.timing.graph import TimingGraph
from repro.timing.propagation import propagate_arrival_times


def _delay(value: float, sigma_scale: float = 0.05) -> CanonicalForm:
    return CanonicalForm(value, sigma_scale * value, [0.3 * sigma_scale * value],
                         0.5 * sigma_scale * value)


@pytest.fixture
def two_by_two() -> TimingGraph:
    """Two inputs, two outputs, with one unreachable pair."""
    graph = TimingGraph("g", 1)
    for name in ("a", "b"):
        graph.mark_input(name)
    for name in ("y", "z"):
        graph.mark_output(name)
    graph.add_edge("a", "m", _delay(10.0))
    graph.add_edge("b", "m", _delay(12.0))
    graph.add_edge("m", "y", _delay(5.0))
    graph.add_edge("m", "z", _delay(7.0))
    graph.add_edge("a", "y", _delay(30.0))  # direct slow path, only from a
    return graph


class TestGraphArrays:
    def test_arrays_shapes(self, two_by_two):
        arrays = GraphArrays.from_graph(two_by_two)
        assert arrays.edge_mean.shape == (5,)
        assert arrays.edge_corr.shape == (5, 2)
        assert arrays.num_corr == 2
        assert len(arrays.topo_order) == two_by_two.num_vertices

    def test_edge_rows_cover_all_edges(self, two_by_two):
        arrays = GraphArrays.from_graph(two_by_two)
        assert set(arrays.edge_rows) == {edge.edge_id for edge in two_by_two.edges}


class TestClarkMaxArrays:
    def test_matches_scalar_operator(self):
        rng = np.random.default_rng(4)
        for _unused in range(20):
            a = CanonicalForm(rng.uniform(0, 20), rng.uniform(0, 2),
                              rng.uniform(-1, 1, 2), rng.uniform(0, 2))
            b = CanonicalForm(rng.uniform(0, 20), rng.uniform(0, 2),
                              rng.uniform(-1, 1, 2), rng.uniform(0, 2))
            expected = statistical_max(a, b)
            corr_a = np.concatenate(([a.global_coeff], a.local_coeffs))
            corr_b = np.concatenate(([b.global_coeff], b.local_coeffs))
            mean, corr, randvar = clark_max_arrays(
                np.array([a.nominal]), corr_a[np.newaxis, :], np.array([a.random_coeff ** 2]),
                np.array([b.nominal]), corr_b[np.newaxis, :], np.array([b.random_coeff ** 2]),
            )
            assert mean[0] == pytest.approx(expected.nominal, rel=1e-9)
            total_var = float(np.dot(corr[0], corr[0]) + randvar[0])
            assert total_var == pytest.approx(expected.variance, rel=1e-9)


class TestAllPairs:
    def test_requires_inputs_and_outputs(self):
        graph = TimingGraph("empty")
        graph.add_edge("a", "b", _delay(1.0))
        with pytest.raises(TimingGraphError):
            AllPairsTiming.analyze(graph)

    def test_matrix_validity_mask(self, two_by_two):
        analysis = AllPairsTiming.analyze(two_by_two)
        assert analysis.matrix_valid.all()
        assert analysis.delay_form("a", "y") is not None

    def test_unreachable_pair_is_invalid(self):
        graph = TimingGraph("partial", 1)
        graph.mark_input("a")
        graph.mark_input("b")
        graph.mark_output("y")
        graph.mark_output("z")
        graph.add_edge("a", "y", _delay(3.0))
        graph.add_edge("b", "z", _delay(4.0))
        analysis = AllPairsTiming.analyze(graph)
        assert analysis.matrix_valid[0, 0]
        assert not analysis.matrix_valid[0, 1]
        assert analysis.delay_form("a", "z") is None
        assert np.isnan(analysis.matrix_means()[0, 1])

    def test_deterministic_delays(self, two_by_two):
        analysis = AllPairsTiming.analyze(two_by_two)
        means = analysis.matrix_means()
        i_a = analysis.inputs.index("a")
        i_b = analysis.inputs.index("b")
        j_y = analysis.outputs.index("y")
        j_z = analysis.outputs.index("z")
        # a->y: max(10+5, 30) = 30-ish (statistical max can only exceed it).
        assert means[i_a, j_y] >= 30.0 - 1e-6
        assert means[i_b, j_y] == pytest.approx(17.0, rel=0.01)
        assert means[i_a, j_z] == pytest.approx(17.0, rel=0.01)
        assert means[i_b, j_z] == pytest.approx(19.0, rel=0.01)

    def test_single_input_column_matches_object_propagation(self, two_by_two):
        analysis = AllPairsTiming.analyze(two_by_two)
        # Propagate from input "b" alone with the object-level engine.
        graph = two_by_two
        arrivals = propagate_arrival_times(
            graph,
            {
                "a": CanonicalForm.minus_infinity(1),
                "b": CanonicalForm.constant(0.0, 1),
            },
        )
        i_b = analysis.inputs.index("b")
        j_z = analysis.outputs.index("z")
        assert analysis.matrix_mean[i_b, j_z] == pytest.approx(arrivals["z"].nominal, rel=1e-9)

    def test_matrix_against_monte_carlo(self, adder_graph):
        analysis = AllPairsTiming.analyze(adder_graph)
        reference = simulate_io_delays(adder_graph, num_samples=3000, seed=5)
        means = analysis.matrix_means()
        stds = analysis.matrix_std()
        mask = analysis.matrix_valid
        assert np.allclose(means[mask], reference.means[mask], rtol=0.05)
        assert np.allclose(stds[mask], reference.stds[mask], rtol=0.25, atol=2.0)

    def test_arrival_validity_only_for_reachable(self, two_by_two):
        analysis = AllPairsTiming.analyze(two_by_two)
        arrays = analysis.arrays
        m_row = arrays.vertex_index["m"]
        assert analysis.arrival_valid[m_row].all()
        y_row = arrays.vertex_index["y"]
        assert analysis.to_output_valid[y_row].tolist() == [True, False]
