"""Parity tests: levelized propagation vs the object-level reference loop.

The level fold folds every vertex's fanin/fanout candidates in the same
order as the object-level oracle (the ``propagation_reference`` fixture),
so the two must agree to floating-point round-off (1e-9) on every vertex —
asserted here on the real ISCAS c17 netlist, on a generated array
multiplier, on an ISCAS85 surrogate and on a 64-bit ripple-carry adder,
whose forward levels past the first hold one or two vertices each.
"""

import math
import re

import numpy as np
import pytest

from repro.core.canonical import CanonicalForm
from repro.errors import TimingGraphError
from repro.liberty.library import standard_library
from repro.netlist.generators import ripple_carry_adder
from repro.netlist.iscas85 import iscas85_surrogate
from repro.netlist.multiplier import array_multiplier
from repro.netlist.netlist import Gate, Netlist
from repro.placement.placer import place_netlist
from repro.timing.arrays import GraphArrays
from repro.timing.builder import build_timing_graph, default_variation_for
from repro.timing.graph import TimingGraph
from repro.timing.propagation import (
    circuit_delay,
    compute_slacks,
    compute_slacks_batch,
    longest_path_to_outputs,
    longest_path_to_outputs_batch,
    propagate_arrival_times,
    propagate_arrival_times_batch,
    propagate_required_times,
    propagate_required_times_batch,
)
from repro.timing.sta import corner_sta, deterministic_longest_path


def c17_netlist() -> Netlist:
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


def _graph_for(netlist: Netlist) -> TimingGraph:
    library = standard_library()
    placement = place_netlist(netlist, library)
    variation = default_variation_for(netlist, placement)
    return build_timing_graph(netlist, library, placement, variation)


@pytest.fixture(scope="module", params=["c17", "mult4", "c432", "rca64"])
def parity_graph(request) -> TimingGraph:
    if request.param == "c17":
        return _graph_for(c17_netlist())
    if request.param == "mult4":
        return _graph_for(array_multiplier(4))
    if request.param == "rca64":
        return _graph_for(ripple_carry_adder(64))
    return _graph_for(iscas85_surrogate("c432"))


def _assert_dicts_close(batch_result, object_result, rtol=1e-9, atol=1e-9):
    assert set(batch_result) == set(object_result)
    for vertex, batch_form in batch_result.items():
        assert batch_form.is_close(object_result[vertex], rtol=rtol, atol=atol), vertex


def _offsets(graph: TimingGraph):
    return {
        name: CanonicalForm(10.0 + 2.0 * position, 0.5, [0.25], 0.1)
        for position, name in enumerate(graph.inputs)
    }


#: Which inputs a mask pattern masks with ``minus_infinity``.
MASK_PATTERNS = ["all_but_first", "every_other"]


def _masks(graph: TimingGraph, pattern: str):
    if pattern == "all_but_first":
        masks = {
            name: CanonicalForm.minus_infinity(graph.num_locals)
            for name in graph.inputs[1:]
        }
        masks[graph.inputs[0]] = CanonicalForm.constant(0.0, graph.num_locals)
        return masks
    return {
        name: CanonicalForm.minus_infinity(graph.num_locals)
        for name in graph.inputs[1::2]
    }


class TestArrivalParity:
    def test_arrivals_match_object_engine(self, parity_graph, propagation_reference):
        batched = propagate_arrival_times(parity_graph)
        reference = propagation_reference.arrival_times(parity_graph)
        _assert_dicts_close(batched, reference)

    def test_arrivals_with_input_offsets(self, parity_graph, propagation_reference):
        offsets = _offsets(parity_graph)
        batched = propagate_arrival_times(parity_graph, offsets)
        reference = propagation_reference.arrival_times(parity_graph, offsets)
        _assert_dicts_close(batched, reference)

    def test_circuit_delay_close_to_object(self, parity_graph, propagation_reference):
        # The output reduction genuinely differs (balanced tree vs
        # sequential fold, and Clark's max is not associative), so the
        # comparison is loose; the arrival parity above is the strict one.
        batched = circuit_delay(parity_graph)
        reference = propagation_reference.circuit_delay(parity_graph)
        assert batched.mean == pytest.approx(reference.mean, rel=1e-3)
        assert batched.std == pytest.approx(reference.std, rel=5e-2)

    @pytest.mark.parametrize("pattern", MASK_PATTERNS)
    def test_minus_infinity_masks_match_oracle(
        self, parity_graph, propagation_reference, pattern
    ):
        # Masked inputs stay unseeded: every entry is finite and matches
        # the oracle, which holds -inf forms where only masks reach.
        masks = _masks(parity_graph, pattern)
        times = propagate_arrival_times_batch(parity_graph, masks)
        for name in ("mean", "corr", "randvar"):
            assert np.isfinite(getattr(times, name)[times.valid]).all(), name
        reference = propagation_reference.arrival_times(parity_graph, masks)
        _assert_dicts_close(
            times.as_dict(),
            {name: form for name, form in reference.items() if form.is_finite},
        )


class TestBackwardParity:
    def test_required_times_match_object_engine(
        self, parity_graph, propagation_reference
    ):
        constraint = CanonicalForm(500.0, 1.0, [0.5], 0.25)
        required = {vertex: constraint for vertex in parity_graph.outputs}
        batched = propagate_required_times(parity_graph, required)
        reference = propagation_reference.required_times(parity_graph, required)
        _assert_dicts_close(batched, reference)

    def test_longest_path_to_outputs_matches(self, parity_graph, propagation_reference):
        batched = longest_path_to_outputs(parity_graph)
        reference = propagation_reference.to_outputs(parity_graph)
        _assert_dicts_close(batched, reference)

    def test_slacks_match_object_engine(self, parity_graph, propagation_reference):
        constraint = CanonicalForm.constant(1000.0, parity_graph.num_locals)
        batched = compute_slacks(parity_graph, constraint)
        reference = propagation_reference.slacks(parity_graph, constraint)
        _assert_dicts_close(batched, reference)


class TestBatchStructures:
    def test_vertex_times_accessors(self, parity_graph):
        times = propagate_arrival_times_batch(parity_graph)
        as_dict = times.as_dict()
        for vertex in parity_graph.vertices:
            form = times.form(vertex)
            if form is None:
                assert vertex not in as_dict
            else:
                assert form == as_dict[vertex]
        assert times.form("__does_not_exist__") is None

    def test_shared_arrays_reused_across_passes(
        self, parity_graph, propagation_reference
    ):
        arrays = GraphArrays.of(parity_graph)  # held across both passes
        constraint = CanonicalForm.constant(1000.0, parity_graph.num_locals)
        slacks = compute_slacks_batch(parity_graph, constraint)
        assert slacks.arrays is arrays
        reference = propagation_reference.slacks(parity_graph, constraint)
        _assert_dicts_close(slacks.as_dict(), reference)

    def test_level_schedule_is_topological(self, parity_graph):
        arrays = GraphArrays.from_graph(parity_graph)
        seen = np.zeros(parity_graph.num_vertices, dtype=bool)
        seen[arrays.input_rows] = True
        no_fanin = [
            arrays.vertex_index[v]
            for v in parity_graph.vertices
            if parity_graph.fanin_count(v) == 0
        ]
        seen[no_fanin] = True
        for level in arrays.forward_levels():
            for position, row in enumerate(level.vertex_rows):
                edge_rows = level.edge_matrix[position]
                edge_rows = edge_rows[edge_rows >= 0]
                # Every fanin source was finalised in an earlier level.
                assert seen[arrays.edge_source[edge_rows]].all()
            seen[level.vertex_rows] = True
        assert seen.all()

    def test_edge_matrix_preserves_fanin_order(self, parity_graph):
        arrays = GraphArrays.from_graph(parity_graph)
        for level in arrays.forward_levels():
            for position, row in enumerate(level.vertex_rows):
                vertex = list(parity_graph.vertices)[row]
                expected = [
                    arrays.edge_rows[edge.edge_id]
                    for edge in parity_graph.fanin_edges(vertex)
                ]
                stored = level.edge_matrix[position]
                assert stored[stored >= 0].tolist() == expected


class TestCornerStaParity:
    def test_vectorized_longest_path_matches_reference(self, parity_graph):
        # Reference implementation: the original per-edge dictionary loop.
        def reference(graph, sigma_offset):
            arrivals = {vertex: 0.0 for vertex in graph.inputs}
            for vertex in graph.topological_order():
                for edge in graph.fanin_edges(vertex):
                    if edge.source not in arrivals:
                        continue
                    delay = edge.delay.nominal + sigma_offset * edge.delay.std
                    candidate = arrivals[edge.source] + delay
                    if candidate > arrivals.get(vertex, float("-inf")):
                        arrivals[vertex] = candidate
            return max(arrivals[v] for v in graph.outputs if v in arrivals)

        for sigma in (0.0, 3.0, -3.0):
            assert deterministic_longest_path(parity_graph, sigma) == pytest.approx(
                reference(parity_graph, sigma), rel=1e-12
            )

    def test_corner_report_ordering(self, parity_graph):
        report = corner_sta(parity_graph, sigma_corner=3.0)
        assert report.best <= report.nominal <= report.worst


#: Every analysis that reads the graph's shared view, as ``analyse(graph)``.
ARRAYS_ENTRY_POINTS = [
    pytest.param(propagate_arrival_times_batch, id="arrivals"),
    pytest.param(longest_path_to_outputs_batch, id="to_outputs"),
    pytest.param(propagate_required_times_batch, id="required"),
    pytest.param(
        lambda graph: compute_slacks_batch(
            graph, CanonicalForm.constant(1000.0, graph.num_locals)
        ),
        id="slacks",
    ),
    pytest.param(deterministic_longest_path, id="corner"),
]


def _assert_identical(result, reference):
    if isinstance(reference, float):
        assert result == reference
        return
    for name in ("mean", "corr", "randvar", "valid"):
        np.testing.assert_array_equal(getattr(result, name), getattr(reference, name))


class TestRegressions:
    @pytest.mark.parametrize("analyse", ARRAYS_ENTRY_POINTS)
    def test_shared_arrays_are_read_only(self, parity_graph, analyse):
        # One view serves every analysis of the graph while it is held
        # (compute_slacks_batch runs two passes on it): a pass must leave
        # the edge arrays as it found them, so a repeat is bitwise.
        arrays = GraphArrays.of(parity_graph)
        edges = [
            getattr(arrays, name).copy()
            for name in ("edge_mean", "edge_corr", "edge_randvar")
        ]
        first = analyse(parity_graph)
        _assert_identical(analyse(parity_graph), first)
        assert GraphArrays.of(parity_graph) is arrays
        for name, before in zip(("edge_mean", "edge_corr", "edge_randvar"), edges):
            np.testing.assert_array_equal(getattr(arrays, name), before)


def _reachable_from(graph: TimingGraph, sources):
    """Vertices reachable from ``sources`` (included) along graph edges."""
    seen = set(sources)
    stack = list(sources)
    while stack:
        for edge in graph.fanout_edges(stack.pop()):
            if edge.sink not in seen:
                seen.add(edge.sink)
                stack.append(edge.sink)
    return seen


def _reaches_an_output(graph: TimingGraph):
    seen = set(graph.outputs)
    stack = list(graph.outputs)
    while stack:
        for edge in graph.fanin_edges(stack.pop()):
            if edge.source not in seen:
                seen.add(edge.source)
                stack.append(edge.source)
    return seen


class TestNonFiniteBoundaryConditions:
    """``minus_infinity`` masks leave inputs unseeded; other non-finite seeds raise."""

    @pytest.mark.parametrize("pattern", MASK_PATTERNS)
    def test_masked_slacks_are_finite_and_match_oracle(
        self, parity_graph, propagation_reference, pattern
    ):
        graph = parity_graph
        masks = _masks(graph, pattern)
        constraint = CanonicalForm.constant(1000.0, graph.num_locals)
        slacks = compute_slacks_batch(graph, constraint, masks)
        for name in ("mean", "corr", "randvar"):
            assert np.isfinite(getattr(slacks, name)[slacks.valid]).all(), name
        reference = propagation_reference.slacks(graph, constraint, masks)
        for vertex, form in slacks.as_dict().items():
            assert form.is_close(reference[vertex], rtol=1e-9, atol=1e-9), vertex

    @pytest.mark.parametrize("pattern", MASK_PATTERNS)
    def test_entry_iff_reachable_from_an_unmasked_input(self, parity_graph, pattern):
        graph = parity_graph
        masks = _masks(graph, pattern)
        unmasked = [
            name for name in graph.inputs
            if name not in masks or masks[name].is_finite
        ]
        reachable = _reachable_from(graph, unmasked)
        assert set(propagate_arrival_times(graph, masks)) == reachable
        constraint = CanonicalForm.constant(1000.0, graph.num_locals)
        assert set(compute_slacks(graph, constraint, masks)) == (
            reachable & _reaches_an_output(graph)
        )

    def test_every_output_masked_raises(self, parity_graph):
        graph = parity_graph
        masks = {
            name: CanonicalForm.minus_infinity(graph.num_locals)
            for name in graph.inputs
        }
        assert propagate_arrival_times(graph, masks) == {}
        with pytest.raises(TimingGraphError, match="no output"):
            circuit_delay(graph, masks)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_arrival_raises(self, parity_graph, value):
        graph = parity_graph
        vertex = graph.inputs[-1]
        bad = {vertex: CanonicalForm.constant(value, graph.num_locals)}
        with pytest.raises(ValueError, match=re.escape(repr(vertex))):
            propagate_arrival_times_batch(graph, bad)
        with pytest.raises(ValueError, match=re.escape(repr(vertex))):
            circuit_delay(graph, bad)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_required_time_raises(self, parity_graph, value):
        graph = parity_graph
        vertex = graph.outputs[-1]
        bad = CanonicalForm.constant(value, graph.num_locals)
        with pytest.raises(ValueError, match=re.escape(repr(vertex))):
            propagate_required_times_batch(graph, {vertex: bad})
        with pytest.raises(ValueError, match=re.escape(repr(graph.outputs[0]))):
            compute_slacks_batch(graph, bad)
