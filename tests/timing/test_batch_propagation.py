"""Parity tests: batched levelized propagation vs the object-level engine.

The batched engine folds every vertex's fanin/fanout candidates in the same
order as the object-level reference loop, so the two must agree to
floating-point round-off (1e-9) on every vertex — asserted here on the
real ISCAS c17 netlist, on a generated array multiplier and on an ISCAS85
surrogate.
"""

import numpy as np
import pytest

from repro.core.canonical import CanonicalForm
from repro.errors import TimingGraphError
from repro.liberty.library import standard_library
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


@pytest.fixture(scope="module", params=["c17", "mult4", "c432"])
def parity_graph(request) -> TimingGraph:
    if request.param == "c17":
        return _graph_for(c17_netlist())
    if request.param == "mult4":
        return _graph_for(array_multiplier(4))
    return _graph_for(iscas85_surrogate("c432"))


def _assert_dicts_close(batch_result, object_result, rtol=1e-9, atol=1e-9):
    assert set(batch_result) == set(object_result)
    for vertex, batch_form in batch_result.items():
        assert batch_form.is_close(object_result[vertex], rtol=rtol, atol=atol), vertex


class TestArrivalParity:
    def test_arrivals_match_object_engine(self, parity_graph):
        batched = propagate_arrival_times(parity_graph, engine="batch")
        reference = propagate_arrival_times(parity_graph, engine="object")
        _assert_dicts_close(batched, reference)

    def test_arrivals_with_input_offsets(self, parity_graph):
        offsets = {
            name: CanonicalForm(10.0 + 2.0 * position, 0.5, [0.25], 0.1)
            for position, name in enumerate(parity_graph.inputs)
        }
        batched = propagate_arrival_times(parity_graph, offsets, engine="batch")
        reference = propagate_arrival_times(parity_graph, offsets, engine="object")
        _assert_dicts_close(batched, reference)

    def test_circuit_delay_close_to_object(self, parity_graph):
        # The output reduction genuinely differs (balanced tree vs
        # sequential fold, and Clark's max is not associative), so the
        # comparison is loose; the arrival parity above is the strict one.
        batched = circuit_delay(parity_graph, engine="batch")
        reference = circuit_delay(parity_graph, engine="object")
        assert batched.mean == pytest.approx(reference.mean, rel=1e-3)
        assert batched.std == pytest.approx(reference.std, rel=5e-2)

    def test_minus_infinity_masks_fall_back(self, parity_graph):
        # Non-finite seeds route to the object engine in every mode.
        masks = {name: CanonicalForm.minus_infinity(parity_graph.num_locals)
                 for name in parity_graph.inputs[1:]}
        masks[parity_graph.inputs[0]] = CanonicalForm.constant(
            0.0, parity_graph.num_locals
        )
        batched = propagate_arrival_times(parity_graph, masks, engine="batch")
        reference = propagate_arrival_times(parity_graph, masks, engine="object")
        _assert_dicts_close(batched, reference)


class TestBackwardParity:
    def test_required_times_match_object_engine(self, parity_graph):
        constraint = CanonicalForm(500.0, 1.0, [0.5], 0.25)
        required = {vertex: constraint for vertex in parity_graph.outputs}
        batched = propagate_required_times(parity_graph, required, engine="batch")
        reference = propagate_required_times(parity_graph, required, engine="object")
        _assert_dicts_close(batched, reference)

    def test_longest_path_to_outputs_matches(self, parity_graph):
        batched = longest_path_to_outputs(parity_graph, engine="batch")
        reference = longest_path_to_outputs(parity_graph, engine="object")
        _assert_dicts_close(batched, reference)

    def test_slacks_match_object_engine(self, parity_graph):
        constraint = CanonicalForm.constant(1000.0, parity_graph.num_locals)
        batched = compute_slacks(parity_graph, constraint, engine="batch")
        reference = compute_slacks(parity_graph, constraint, engine="object")
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

    def test_shared_arrays_reused_across_passes(self, parity_graph):
        arrays = GraphArrays.from_graph(parity_graph)
        constraint = CanonicalForm.constant(1000.0, parity_graph.num_locals)
        slacks = compute_slacks_batch(parity_graph, constraint, arrays=arrays)
        assert slacks.arrays is arrays
        reference = compute_slacks(parity_graph, constraint, engine="object")
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


#: Every analysis that takes prebuilt ``arrays=``, as ``(graph, arrays)``.
ARRAYS_ENTRY_POINTS = [
    pytest.param(
        lambda graph, arrays: propagate_arrival_times_batch(graph, arrays=arrays),
        id="arrivals",
    ),
    pytest.param(
        lambda graph, arrays: longest_path_to_outputs_batch(graph, arrays=arrays),
        id="to_outputs",
    ),
    pytest.param(
        lambda graph, arrays: propagate_required_times_batch(graph, arrays=arrays),
        id="required",
    ),
    pytest.param(
        lambda graph, arrays: compute_slacks_batch(
            graph, CanonicalForm.constant(1000.0, graph.num_locals), arrays=arrays
        ),
        id="slacks",
    ),
    pytest.param(
        lambda graph, arrays: deterministic_longest_path(graph, arrays=arrays),
        id="corner",
    ),
]


def _assert_identical(result, reference):
    if isinstance(reference, float):
        assert result == reference
        return
    for name in ("mean", "corr", "randvar", "valid"):
        np.testing.assert_array_equal(getattr(result, name), getattr(reference, name))


@pytest.fixture(scope="module")
def c432_graph() -> TimingGraph:
    return _graph_for(iscas85_surrogate("c432"))


def _retimed_copy(graph: TimingGraph):
    """A copy of ``graph`` plus arrays built before 200 of its edges doubled."""
    graph = graph.copy()
    stale = GraphArrays.from_graph(graph)
    for edge in graph.edges[:200]:
        graph.replace_edge_delay(edge, edge.delay.scale(2.0))
    return graph, stale


class TestRegressions:
    # Prebuilt arrays are never silently refreshed: arrays of an older
    # revision (here: before a retime) or of another graph must raise
    # instead of propagating the old delays.
    @pytest.mark.parametrize("analyse", ARRAYS_ENTRY_POINTS)
    def test_stale_arrays_raise(self, c432_graph, analyse):
        graph, stale = _retimed_copy(c432_graph)
        with pytest.raises(TimingGraphError) as excinfo:
            analyse(graph, stale)
        message = str(excinfo.value)
        assert "revision %d" % stale.revision in message
        assert "revision %d" % graph.revision in message

    @pytest.mark.parametrize("analyse", ARRAYS_ENTRY_POINTS)
    def test_foreign_arrays_raise(self, c432_graph, analyse):
        graph = c432_graph.copy()
        with pytest.raises(TimingGraphError):
            analyse(graph, GraphArrays.from_graph(graph.copy()))

    @pytest.mark.parametrize("analyse", ARRAYS_ENTRY_POINTS)
    def test_refreshed_arrays_match_fresh_build(self, c432_graph, analyse):
        graph, stale = _retimed_copy(c432_graph)
        stale.refresh()
        _assert_identical(analyse(graph, stale), analyse(graph, None))

    @pytest.mark.parametrize("analyse", ARRAYS_ENTRY_POINTS)
    def test_shared_arrays_are_read_only(self, parity_graph, analyse):
        # One GraphArrays serves many passes (compute_slacks_batch runs two,
        # the incremental timer keeps one for its lifetime): a pass must
        # leave the edge arrays as it found them, so a repeat is bitwise.
        arrays = GraphArrays.from_graph(parity_graph)
        edges = [
            getattr(arrays, name).copy()
            for name in ("edge_mean", "edge_corr", "edge_randvar")
        ]
        first = analyse(parity_graph, arrays)
        _assert_identical(analyse(parity_graph, arrays), first)
        for name, before in zip(("edge_mean", "edge_corr", "edge_randvar"), edges):
            np.testing.assert_array_equal(getattr(arrays, name), before)
