"""Micro-benchmarks of the core statistical engine.

These do not map to a paper artifact directly; they quantify the cost of the
primitives (canonical sum/max, arrival propagation, all-pairs analysis,
Monte Carlo sampling) that every reproduced experiment is built from.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.canonical import CanonicalForm
from repro.core.ops import statistical_max, statistical_max_many, statistical_sum
from repro.liberty.library import standard_library
from repro.montecarlo.flat import simulate_graph_delay
from repro.netlist.generators import ripple_carry_adder
from repro.timing.allpairs import AllPairsTiming
from repro.timing.builder import build_timing_graph
from repro.timing.propagation import propagate_arrival_times


@pytest.fixture(scope="module")
def forms():
    rng = np.random.default_rng(0)
    return [
        CanonicalForm(rng.uniform(10, 100), rng.uniform(0, 5), rng.uniform(-2, 2, 16),
                      rng.uniform(0, 5))
        for _unused in range(64)
    ]


@pytest.fixture(scope="module")
def adder_graph():
    netlist = ripple_carry_adder(32)
    return build_timing_graph(netlist, standard_library())


def test_statistical_sum(benchmark, forms):
    benchmark(lambda: [statistical_sum(a, b) for a, b in zip(forms, forms[1:])])


def test_statistical_max(benchmark, forms):
    benchmark(lambda: [statistical_max(a, b) for a, b in zip(forms, forms[1:])])


def test_statistical_max_many(benchmark, forms):
    result = benchmark(statistical_max_many, forms)
    assert result.nominal >= max(form.nominal for form in forms) - 1e-9


def test_arrival_propagation_rca32(benchmark, adder_graph):
    arrivals = benchmark(propagate_arrival_times, adder_graph)
    assert len(arrivals) == adder_graph.num_vertices


def test_allpairs_analysis_rca32(benchmark, adder_graph):
    analysis = benchmark(AllPairsTiming.analyze, adder_graph)
    assert analysis.matrix_valid.any()


def test_monte_carlo_rca32(benchmark, adder_graph):
    result = benchmark(simulate_graph_delay, adder_graph, 2000, 0)
    assert result.num_samples == 2000
