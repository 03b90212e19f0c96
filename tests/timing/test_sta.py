"""Tests of the deterministic corner STA baseline."""

import numpy as np
import pytest

from oracles import _longest_paths_object
from repro.core.canonical import CanonicalForm
from repro.errors import TimingGraphError
from repro.experiments.table1 import TABLE1_CIRCUITS, characterize_circuit
from repro.timing.arrays import GraphArrays
from repro.timing.graph import TimingGraph
from repro.timing.propagation import circuit_delay
from repro.timing.sta import (
    CornerReport,
    corner_sta,
    deterministic_longest_path,
    longest_path_from_arrays,
)

SIGMAS = (-3.0, -1.5, 0.0, 1.5, 3.0)


@pytest.fixture
def graph() -> TimingGraph:
    graph = TimingGraph("g")
    graph.mark_input("a")
    graph.mark_output("z")
    graph.add_edge("a", "m", CanonicalForm(10.0, 1.0, None, 1.0))
    graph.add_edge("m", "z", CanonicalForm(5.0, 0.5, None, 0.5))
    graph.add_edge("a", "z", CanonicalForm(12.0, 2.0, None, 1.0))
    return graph


class TestDeterministicLongestPath:
    def test_nominal(self, graph):
        assert deterministic_longest_path(graph) == 15.0

    def test_sigma_offset_changes_critical_path(self, graph):
        # At +3 sigma the direct edge (larger sigma) becomes critical:
        # 12 + 3*sqrt(5) = 18.7 vs chain 15 + 3*(sqrt(2)+sqrt(0.5)).
        worst = deterministic_longest_path(graph, 3.0)
        assert worst == pytest.approx(15.0 + 3.0 * (2.0 ** 0.5 + 0.5 ** 0.5), rel=1e-9)

    def test_unreachable_output_raises(self):
        graph = TimingGraph("bad")
        graph.mark_input("a")
        graph.mark_output("z")
        graph.add_vertex("z")
        with pytest.raises(TimingGraphError):
            deterministic_longest_path(graph)


class TestCornerSta:
    def test_report_ordering(self, graph):
        report = corner_sta(graph)
        assert report.best < report.nominal < report.worst
        assert report.spread == pytest.approx(report.worst - report.best)
        assert report.pessimism > 1.0

    def test_negative_sigma_rejected(self, graph):
        with pytest.raises(ValueError):
            corner_sta(graph, -1.0)

    def test_corner_sta_more_pessimistic_than_ssta(self, adder_graph):
        # The paper's motivation: per-edge worst-casing exceeds the
        # statistical 3-sigma point of the true delay distribution.
        report = corner_sta(adder_graph, 3.0)
        delay = circuit_delay(adder_graph)
        assert report.worst > delay.mean + 3.0 * delay.std

    def test_zero_sigma_collapses_corners(self, graph):
        report = corner_sta(graph, 0.0)
        assert report.worst == report.nominal == report.best


@pytest.mark.parametrize("name", TABLE1_CIRCUITS)
def test_corner_delays_match_the_object_reference_bitwise(name, library):
    # Corner STA propagates its corner delays as Monte Carlo "samples"
    # through the levelized kernel; max and + are exact, so every corner
    # equals the per-vertex reference loop bit for bit.
    arrays = GraphArrays.from_graph(characterize_circuit(name, library=library).graph)
    std = np.sqrt(
        np.einsum("ek,ek->e", arrays.edge_corr, arrays.edge_corr) + arrays.edge_randvar
    )
    delays = np.stack([arrays.edge_mean + sigma * std for sigma in SIGMAS], axis=1)
    arrivals = _longest_paths_object(arrays, delays, arrays.input_rows)
    reference = arrivals[arrays.output_rows].max(axis=0)
    corners = [longest_path_from_arrays(arrays, sigma) for sigma in SIGMAS]
    assert corners == reference.tolist()
