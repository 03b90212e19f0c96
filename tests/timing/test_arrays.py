"""The graph's shared array view, :meth:`GraphArrays.of`.

Every one-shot analysis reads the view ``GraphArrays.of(graph)`` returns:
one view per graph and revision, reused while anyone holds it.  The graph
side holds it weakly, so a view lives exactly as long as its holders, and
an edit makes ``of`` build a new view instead of patching the old one —
an earlier holder's view keeps the revision it was built at.
"""

import gc
import inspect
import pickle
import weakref

import numpy as np
import pytest

from repro.core.canonical import CanonicalForm
from repro.errors import TimingGraphError
from repro.model.criticality import compute_edge_criticalities
from repro.montecarlo.flat import simulate_graph_delay, simulate_io_delays
from repro.timing.allpairs import AllPairsTiming
from repro.timing.arrays import GraphArrays
from repro.timing.incremental import IncrementalTimer
from repro.timing.propagation import (
    compute_slacks_batch,
    longest_path_to_outputs_batch,
    propagate_arrival_times_batch,
    propagate_required_times_batch,
)
from repro.timing.sta import deterministic_longest_path

_COLUMNS = ("edge_ids", "edge_source", "edge_sink", "edge_mean", "edge_corr", "edge_randvar")

#: The seven one-shot analyses, each reduced to an array-valued result.
ONE_SHOT = {
    "arrivals": propagate_arrival_times_batch,
    "to_outputs": longest_path_to_outputs_batch,
    "required": propagate_required_times_batch,
    "slacks": lambda graph: compute_slacks_batch(
        graph, CanonicalForm.constant(1000.0, graph.num_locals)
    ),
    "corner": lambda graph: np.array([deterministic_longest_path(graph, 3.0)]),
    "graph_mc": lambda graph: simulate_graph_delay(graph, 64, seed=1).samples,
    "io_mc": lambda graph: simulate_io_delays(graph, 64, seed=1).means,
}


def _values(result):
    if isinstance(result, np.ndarray):
        return [result]
    return [getattr(result, name) for name in ("mean", "corr", "randvar", "valid")]


def _identical(result, reference):
    return all(
        np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
        for a, b in zip(_values(result), _values(reference))
    )


@pytest.fixture
def graph(c17_graph):
    return c17_graph.copy()


def _edit(graph, kind):
    if kind == "retime":
        edge = graph.edges[0]
        graph.replace_edge_delay(edge, edge.delay.scale(2.0))
    elif kind == "add":
        graph.add_edge(
            graph.inputs[0],
            graph.outputs[0],
            CanonicalForm.constant(1.0, graph.num_locals),
        )
    else:
        graph.remove_edge(graph.edges[-1])


def test_returns_the_held_view(graph):
    arrays = GraphArrays.of(graph)
    assert arrays.graph is graph
    assert arrays.revision == graph.revision
    assert GraphArrays.of(graph) is arrays


def test_analyses_share_the_held_view(graph):
    arrays = GraphArrays.of(graph)
    assert propagate_arrival_times_batch(graph).arrays is arrays
    assert longest_path_to_outputs_batch(graph).arrays is arrays
    assert AllPairsTiming.analyze(graph).arrays is arrays


@pytest.mark.parametrize("kind", ["retime", "add", "remove"])
def test_an_edit_builds_a_new_view_and_leaves_the_old_one(graph, kind):
    old = GraphArrays.of(graph)
    revision = old.revision
    before = {name: getattr(old, name).copy() for name in _COLUMNS}
    _edit(graph, kind)

    new = GraphArrays.of(graph)
    assert new is not old
    assert new.revision == graph.revision != revision
    assert GraphArrays.of(graph) is new
    fresh = GraphArrays.from_graph(graph)
    for name in _COLUMNS:
        np.testing.assert_array_equal(getattr(new, name), getattr(fresh, name))
    # The earlier holder's view was never patched.
    assert old.revision == revision
    for name, values in before.items():
        np.testing.assert_array_equal(getattr(old, name), values)


@pytest.mark.parametrize("name", sorted(ONE_SHOT))
def test_an_analysis_after_an_edit_reads_the_new_delays(graph, name):
    # A view held from before the edit is never analysed in place of the
    # graph's current delays.
    analyse = ONE_SHOT[name]
    held = GraphArrays.of(graph)
    before = analyse(graph)
    for edge in graph.edges:
        graph.replace_edge_delay(edge, edge.delay.scale(2.0))
    after = analyse(graph)
    assert held.revision < graph.revision
    assert not _identical(after, before)
    assert _identical(after, analyse(graph.copy()))


def test_a_copy_never_shares_a_view(graph):
    arrays = GraphArrays.of(graph)
    twin = graph.copy()
    assert twin.revision == graph.revision
    twin_arrays = GraphArrays.of(twin)
    assert twin_arrays is not arrays
    assert twin_arrays.graph is twin


def test_dropping_the_last_holder_frees_the_view(graph):
    attributes = set(vars(graph))
    gc.disable()  # freed by reference counting alone, not by the cyclic GC
    try:
        times = propagate_arrival_times_batch(graph)
        deterministic_longest_path(graph, 3.0)  # caches the fold schedule on it
        view = weakref.ref(times.arrays)
        assert GraphArrays.of(graph) is view()
        del times
        assert view() is None
    finally:
        gc.enable()
    assert set(vars(graph)) == attributes  # the graph gained no attribute


def test_the_graph_holds_no_view_and_still_pickles(graph):
    arrays = GraphArrays.of(graph)
    assert all(value is not arrays for value in vars(graph).values())
    clone = pickle.loads(pickle.dumps(graph))
    assert clone.revision == graph.revision
    assert GraphArrays.of(clone) is not arrays
    np.testing.assert_array_equal(GraphArrays.of(clone).edge_mean, arrays.edge_mean)


def test_a_stale_analysis_still_raises_after_the_view_was_rebuilt(graph):
    analysis = AllPairsTiming.analyze(graph)
    _edit(graph, "retime")
    current = AllPairsTiming.analyze(graph)
    assert current.arrays is not analysis.arrays
    assert analysis.arrays.revision < graph.revision
    with pytest.raises(TimingGraphError) as excinfo:
        compute_edge_criticalities(graph, analysis)
    message = str(excinfo.value)
    assert "stale analysis=" in message
    assert "this graph at revision %d" % analysis.arrays.revision in message
    assert "revision %d" % graph.revision in message
    compute_edge_criticalities(graph, current)


@pytest.mark.parametrize(
    "analysis",
    [
        propagate_arrival_times_batch,
        longest_path_to_outputs_batch,
        propagate_required_times_batch,
        compute_slacks_batch,
        deterministic_longest_path,
        simulate_graph_delay,
        simulate_io_delays,
    ],
)
def test_one_shot_analyses_take_no_arrays(analysis):
    assert "arrays" not in inspect.signature(analysis).parameters


def test_incremental_timer_takes_no_convergence_tolerance():
    assert "convergence_tolerance" not in inspect.signature(IncrementalTimer).parameters
