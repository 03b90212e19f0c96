"""The prebuilt-``arrays=`` guard shared by every array-backed analysis.

:func:`repro.timing.arrays._graph_arrays` accepts a caller's
:class:`GraphArrays` only if it is a view of the very graph being analysed
at that graph's current revision.  It never refreshes them (they may
belong to a session): anything else raises.
"""

import numpy as np
import pytest

from repro.errors import TimingGraphError
from repro.timing.arrays import GraphArrays, _graph_arrays


@pytest.fixture
def graph(c17_graph):
    return c17_graph.copy()


def _retime_first_edge(graph):
    edge = graph.edges[0]
    graph.replace_edge_delay(edge, edge.delay.scale(2.0))


def test_missing_arrays_are_built_at_the_current_revision(graph):
    _retime_first_edge(graph)
    arrays = _graph_arrays(graph, None)
    assert arrays.graph is graph
    assert arrays.revision == graph.revision


def test_current_arrays_are_passed_through(graph):
    arrays = GraphArrays.from_graph(graph)
    assert _graph_arrays(graph, arrays) is arrays


def test_older_revision_raises_naming_both_revisions(graph):
    stale = GraphArrays.from_graph(graph)
    _retime_first_edge(graph)
    with pytest.raises(TimingGraphError) as excinfo:
        _graph_arrays(graph, stale)
    message = str(excinfo.value)
    assert "this graph at revision %d" % stale.revision in message
    assert "revision %d" % graph.revision in message


def test_another_graphs_arrays_raise_naming_that_graph(graph, tiny_graph):
    with pytest.raises(TimingGraphError, match="graph 'tiny'"):
        _graph_arrays(graph, GraphArrays.from_graph(tiny_graph))
    # A copy is another graph too, even at the same revision.
    twin = graph.copy()
    with pytest.raises(TimingGraphError):
        _graph_arrays(graph, GraphArrays.from_graph(twin))


def test_rejected_arrays_are_left_untouched(graph):
    stale = GraphArrays.from_graph(graph)
    revision = stale.revision
    edge_mean = stale.edge_mean.copy()
    _retime_first_edge(graph)
    with pytest.raises(TimingGraphError):
        _graph_arrays(graph, stale)
    assert stale.revision == revision
    assert np.array_equal(stale.edge_mean, edge_mean)


def test_refreshed_arrays_are_passed_through(graph):
    arrays = GraphArrays.from_graph(graph)
    _retime_first_edge(graph)
    arrays.refresh()
    assert _graph_arrays(graph, arrays) is arrays
    fresh = GraphArrays.from_graph(graph)
    assert np.array_equal(arrays.edge_mean, fresh.edge_mean)
