"""Shared fixtures of the repro test suite.

The fixtures favour small, deterministic circuits so the full suite stays
fast; the experiment-level tests use the FAST configuration (reduced Monte
Carlo sample counts) for the same reason.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.canonical import CanonicalForm
from repro.experiments.config import ExperimentConfig
from repro.liberty.library import Library, standard_library
from repro.netlist.generators import layered_random_circuit, ripple_carry_adder
from repro.netlist.iscas85 import iscas85_surrogate
from repro.netlist.multiplier import array_multiplier
from repro.netlist.netlist import Gate, Netlist
from repro.placement.placer import Placement, place_netlist
from repro.timing.builder import build_timing_graph, default_variation_for
from repro.timing.graph import TimingGraph
from repro.variation.grid import Die, GridPartition
from repro.variation.model import VariationModel
from repro.variation.spatial import SpatialCorrelation


@pytest.fixture(scope="session")
def library() -> Library:
    """The synthetic 90 nm library shared by all tests."""
    return standard_library()


@pytest.fixture(scope="session")
def fast_config() -> ExperimentConfig:
    """Paper configuration with reduced Monte Carlo sample counts."""
    return ExperimentConfig(monte_carlo_samples=1500, monte_carlo_chunk=750)


@pytest.fixture
def tiny_netlist() -> Netlist:
    """A hand-written five-gate circuit with reconvergent fanout."""
    gates = [
        Gate("u1", "NAND", ("a", "b"), "n1"),
        Gate("u2", "NOR", ("b", "c"), "n2"),
        Gate("u3", "AND", ("n1", "n2"), "n3"),
        Gate("u4", "INV", ("n1",), "n4"),
        Gate("u5", "OR", ("n3", "n4"), "z"),
    ]
    netlist = Netlist("tiny", ["a", "b", "c"], ["z"], gates)
    netlist.validate()
    return netlist


@pytest.fixture
def adder_netlist() -> Netlist:
    """A 4-bit ripple-carry adder."""
    return ripple_carry_adder(4)


@pytest.fixture
def small_random_netlist() -> Netlist:
    """A 60-gate random circuit with exact connection count."""
    return layered_random_circuit(
        "rand60", num_inputs=8, num_outputs=5, num_gates=60, num_connections=130, seed=7
    )


@pytest.fixture
def small_variation() -> VariationModel:
    """A 2x2-grid variation model on a 10x10 die."""
    partition = GridPartition.regular(Die(10.0, 10.0), 5.0)
    return VariationModel(partition, SpatialCorrelation(), sigma_fraction=0.1,
                          random_variance_share=0.25)


@pytest.fixture
def tiny_graph(tiny_netlist, library) -> TimingGraph:
    """Statistical timing graph of the five-gate circuit."""
    placement = place_netlist(tiny_netlist, library)
    variation = default_variation_for(tiny_netlist, placement)
    return build_timing_graph(tiny_netlist, library, placement, variation)


@pytest.fixture
def adder_graph(adder_netlist, library) -> TimingGraph:
    """Statistical timing graph of the 4-bit adder."""
    placement = place_netlist(adder_netlist, library)
    variation = default_variation_for(adder_netlist, placement)
    return build_timing_graph(adder_netlist, library, placement, variation)


@pytest.fixture
def random_graph_and_variation(small_random_netlist, library):
    """Graph plus variation model of the 60-gate random circuit."""
    placement = place_netlist(small_random_netlist, library)
    variation = default_variation_for(small_random_netlist, placement)
    graph = build_timing_graph(small_random_netlist, library, placement, variation)
    return graph, variation


def make_form(
    nominal: float,
    global_coeff: float = 0.0,
    local_coeffs=None,
    random_coeff: float = 0.0,
) -> CanonicalForm:
    """Shorthand canonical-form constructor used across test modules."""
    return CanonicalForm(nominal, global_coeff, local_coeffs, random_coeff)


# ----------------------------------------------------------------------
# Shared fixtures of the incremental parity suites
# ----------------------------------------------------------------------
def _c17_netlist() -> Netlist:
    """The textbook ISCAS c17 circuit: six NAND2 gates, five PIs, two POs."""
    gates = [
        Gate("g10", "NAND", ("i1", "i3"), "n10"),
        Gate("g11", "NAND", ("i3", "i4"), "n11"),
        Gate("g16", "NAND", ("i2", "n11"), "n16"),
        Gate("g19", "NAND", ("n11", "i5"), "n19"),
        Gate("g22", "NAND", ("n10", "n16"), "o22"),
        Gate("g23", "NAND", ("n16", "n19"), "o23"),
    ]
    netlist = Netlist("c17", ["i1", "i2", "i3", "i4", "i5"], ["o22", "o23"], gates)
    netlist.validate()
    return netlist


def _placed_graph_and_variation(netlist: Netlist, library: Library):
    placement = place_netlist(netlist, library)
    variation = default_variation_for(netlist, placement)
    return build_timing_graph(netlist, library, placement, variation), variation


@pytest.fixture(scope="session")
def c17_graph(library) -> TimingGraph:
    """Pristine timing graph of the real c17 circuit (tests copy() it)."""
    return _placed_graph_and_variation(_c17_netlist(), library)[0]


@pytest.fixture(scope="session", params=["c17", "mult4", "c432"])
def parity_module(request, library):
    """Pristine ``(graph, variation)`` of the incremental-parity circuits.

    The three acceptance circuits of the incremental subsystem: the real
    ISCAS c17, a generated 4x4 array multiplier and the c432 surrogate.
    The graph is shared across tests — always ``copy()`` before editing.
    """
    if request.param == "c17":
        netlist = _c17_netlist()
    elif request.param == "mult4":
        netlist = array_multiplier(4)
    else:
        netlist = iscas85_surrogate("c432")
    return _placed_graph_and_variation(netlist, library)


@pytest.fixture(scope="session")
def random_graph_edit():
    """One random retime / remove / add edit, shared by the parity suites.

    Returns ``apply(graph, rng) -> kind`` so every randomized edit-sequence
    test exercises the same edit mix.
    """

    def _apply(graph: TimingGraph, rng: random.Random) -> str:
        kind = rng.choice(["retime", "retime", "retime", "remove", "add"])
        if kind == "retime":
            edge = rng.choice(graph.edges)
            graph.replace_edge_delay(edge, edge.delay.scale(rng.uniform(0.7, 1.3)))
        elif kind == "remove":
            graph.remove_edge(rng.choice(graph.edges))
        else:
            # An acyclic addition: connect a topologically earlier vertex
            # to a later one with a fresh statistical delay.
            order = graph.topological_order()
            i = rng.randrange(0, len(order) - 1)
            j = rng.randrange(i + 1, len(order))
            graph.add_edge(
                order[i],
                order[j],
                CanonicalForm(
                    rng.uniform(5.0, 40.0), rng.uniform(0.1, 1.0), None, 0.2
                ),
            )
        return kind

    return _apply


@pytest.fixture
def io_group(monkeypatch):
    """Force the input-group size of ``simulate_io_delays`` via its budget.

    Returns ``force(graph, kind, num_samples, chunk_size=None) -> size``:
    it sets ``REPRO_MC_CHUNK_BUDGET`` so a run with these arguments
    propagates ``kind`` = ``"one"`` input per pass, a ``"ragged"`` group
    size that does not divide ``|I|``, or the ``"whole"`` input axis, and
    checks the run's plan resolves to exactly that size.
    """
    from repro.montecarlo.flat import MC_SAMPLE_BLOCK, _io_plan
    from repro.timing.arrays import GraphArrays

    def force(graph, kind, num_samples, chunk_size=None):
        num_inputs = len(graph.inputs)
        size = {
            "one": 1,
            "whole": num_inputs,
            "ragged": next(
                (g for g in range(2, num_inputs) if num_inputs % g), None
            ),
        }[kind]
        if size is None:
            pytest.skip("every group size divides %d inputs" % num_inputs)
        arrays = GraphArrays.from_graph(graph)
        # Auto chunks are one block at these sizes; explicit ones ignore
        # the budget.
        chunk = MC_SAMPLE_BLOCK
        if chunk_size is not None:
            chunk = _io_plan(chunk_size, arrays, num_samples)[0]
        edges, vertices = graph.num_edges, graph.num_vertices
        budget = (edges + (vertices + edges) * size) * min(chunk, num_samples)
        monkeypatch.setenv("REPRO_MC_CHUNK_BUDGET", str(budget))
        assert _io_plan(chunk_size, arrays, num_samples)[1] == size
        return size

    return force


# ----------------------------------------------------------------------
# Reference oracles of the production kernels
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def criticality_reference():
    """Per-edge maxima of the scalar reference ``edge_criticality_matrix``.

    Returns ``reference(graph, analysis) -> CriticalityResult``: every
    edge's maximum over its ``(I, O)`` criticality matrix and one pair
    attaining it — the oracle the batched kernel, the incremental updater
    and the extraction session are checked against (to 1e-9).
    """
    from repro.model.criticality import CriticalityResult, edge_criticality_matrix

    def reference(graph, analysis):
        values, pairs = {}, {}
        for edge in graph.edges:
            matrix = edge_criticality_matrix(analysis, edge)
            i, j = np.unravel_index(int(np.argmax(matrix)), matrix.shape)
            values[edge.edge_id] = float(matrix[i, j])
            pairs[edge.edge_id] = (int(i), int(j))
        return CriticalityResult(values, pairs)

    return reference


@pytest.fixture(scope="session")
def mc_reference():
    """Object-level Monte Carlo oracle on the production sampler's delays.

    Returns a namespace with ``graph_delay(graph, num_samples, seed)`` (the
    circuit-delay samples) and ``io_delays(graph, num_samples, seed)`` (an
    ``IoDelayStatistics``).  Both propagate the delays of
    ``_sample_delay_range`` with the per-vertex ``_longest_paths_object``
    loop, one input at a time for the io statistics, and reduce the io
    moments per sample block in ascending block order as the production
    simulators do — so the levelized kernels must match them bit for bit.
    Validity comes from the sampled arrivals, not from reachability.
    """
    from types import SimpleNamespace

    from repro.montecarlo.flat import (
        MC_SAMPLE_BLOCK,
        IoDelayStatistics,
        _longest_paths_object,
        _sample_delay_range,
    )
    from repro.timing.arrays import GraphArrays

    def _delays(graph, num_samples, seed):
        arrays = GraphArrays.from_graph(graph)
        return arrays, _sample_delay_range(arrays, seed, num_samples, 0, num_samples)

    def graph_delay(graph, num_samples, seed):
        arrays, delays = _delays(graph, num_samples, seed)
        arrivals = _longest_paths_object(arrays, delays, arrays.input_rows)
        return arrivals[arrays.output_rows].max(axis=0)

    def io_delays(graph, num_samples, seed):
        arrays, delays = _delays(graph, num_samples, seed)
        input_rows = arrays.input_rows
        # (I, O, S) output arrivals, one object-level propagation per input.
        arrivals = np.stack([
            _longest_paths_object(arrays, delays, input_rows[k : k + 1])[
                arrays.output_rows
            ]
            for k in range(input_rows.shape[0])
        ])
        valid = np.isfinite(arrivals).all(axis=2)
        finite = np.where(valid[:, :, np.newaxis], arrivals, 0.0)
        sums = np.zeros(valid.shape)
        square_sums = np.zeros(valid.shape)
        for low in range(0, num_samples, MC_SAMPLE_BLOCK):
            block = finite[:, :, low : low + MC_SAMPLE_BLOCK]
            sums += block.sum(axis=2)
            square_sums += (block * block).sum(axis=2)
        means = sums / float(num_samples)
        variances = np.maximum(square_sums / float(num_samples) - means * means, 0.0)
        stds = np.sqrt(variances) * np.sqrt(num_samples / max(num_samples - 1, 1))
        return IoDelayStatistics(
            inputs=graph.inputs,
            outputs=graph.outputs,
            means=np.where(valid, means, np.nan),
            stds=np.where(valid, stds, np.nan),
            valid=valid,
            num_samples=num_samples,
            elapsed_seconds=0.0,
        )

    return SimpleNamespace(graph_delay=graph_delay, io_delays=io_delays)
