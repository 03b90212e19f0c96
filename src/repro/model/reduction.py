"""Timing-graph reduction: serial and parallel merge operations.

These are the two input-output-delay-preserving transformations of
Section IV.A (after Kobayashi & Malik and Moon et al.):

* **serial merge** — an internal vertex with a single fanin edge (or,
  symmetrically, a single fanout edge) is removed and its adjacent edges are
  combined by statistical addition;
* **parallel merge** — multiple edges between the same pair of vertices are
  replaced by one edge whose delay is their statistical maximum.

A pruning pass additionally removes internal vertices that can no longer lie
on any input-to-output path (they appear after non-critical edge removal).
All operations mutate the graph in place and report how much they changed.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.ops import statistical_max_many
from repro.timing.graph import TimingGraph

__all__ = ["serial_merge", "parallel_merge", "prune_unreachable", "reduce_graph"]


def serial_merge(graph: TimingGraph) -> int:
    """Apply serial merges until no more apply; returns removed vertex count.

    A vertex can be merged away when it is internal (not a designated input
    or output) and has exactly one fanin edge or exactly one fanout edge.
    The bypassing edges carry the sum of the two merged delays.
    """
    removed = 0
    changed = True
    while changed:
        changed = False
        for vertex in list(graph.internal_vertices()):
            if not graph.has_vertex(vertex):
                continue
            fanin = graph.fanin_edges(vertex)
            fanout = graph.fanout_edges(vertex)
            if not fanin or not fanout:
                continue
            if len(fanin) == 1:
                in_edge = fanin[0]
                for out_edge in fanout:
                    if in_edge.source == out_edge.sink:
                        break
                else:
                    for out_edge in fanout:
                        graph.add_edge(
                            in_edge.source,
                            out_edge.sink,
                            in_edge.delay.add(out_edge.delay),
                        )
                        graph.remove_edge(out_edge)
                    graph.remove_edge(in_edge)
                    graph.remove_vertex(vertex)
                    removed += 1
                    changed = True
                    continue
            if graph.has_vertex(vertex) and len(fanout) == 1:
                out_edge = fanout[0]
                fanin = graph.fanin_edges(vertex)
                if any(edge.source == out_edge.sink for edge in fanin):
                    continue
                for in_edge in fanin:
                    graph.add_edge(
                        in_edge.source,
                        out_edge.sink,
                        in_edge.delay.add(out_edge.delay),
                    )
                    graph.remove_edge(in_edge)
                graph.remove_edge(out_edge)
                graph.remove_vertex(vertex)
                removed += 1
                changed = True
    return removed


def parallel_merge(graph: TimingGraph) -> int:
    """Collapse parallel edges into single max-delay edges; returns removals."""
    removed = 0
    groups: Dict[Tuple[str, str], List[int]] = {}
    for edge in graph.edges:
        groups.setdefault((edge.source, edge.sink), []).append(edge.edge_id)
    for (source, sink), edge_ids in groups.items():
        if len(edge_ids) < 2:
            continue
        edges = [graph.edge(edge_id) for edge_id in edge_ids]
        merged_delay = statistical_max_many(edge.delay for edge in edges)
        for edge in edges:
            graph.remove_edge(edge)
        graph.add_edge(source, sink, merged_delay)
        removed += len(edges) - 1
    return removed


def prune_unreachable(graph: TimingGraph) -> int:
    """Remove internal vertices/edges not on any input-to-output path.

    After non-critical edge removal some internal vertices lose all their
    fanin (unreachable from every input) or all their fanout (no path to any
    output); they contribute nothing to the delay matrix and are deleted
    together with their remaining edges.  Returns the number of removed
    vertices.
    """
    removed = 0
    changed = True
    while changed:
        changed = False
        for vertex in list(graph.internal_vertices()):
            if not graph.has_vertex(vertex):
                continue
            if graph.fanin_count(vertex) == 0 or graph.fanout_count(vertex) == 0:
                for edge in graph.fanin_edges(vertex):
                    graph.remove_edge(edge)
                for edge in graph.fanout_edges(vertex):
                    graph.remove_edge(edge)
                graph.remove_vertex(vertex)
                removed += 1
                changed = True
    return removed


def reduce_graph(graph: TimingGraph, max_iterations: int = 100) -> TimingGraph:
    """Iterate pruning, serial and parallel merges to a fixpoint (in place).

    Returns the same graph object for chaining.  ``max_iterations`` is a
    safety bound; the reduction always terminates much earlier because every
    round strictly shrinks the graph.

    Every removal and re-wiring lands in the graph's change journal, so a
    session attached to ``graph`` (an
    :class:`~repro.timing.incremental.IncrementalTimer` or an
    :class:`~repro.timing.allpairs.AllPairsSession`) sees the entire
    multi-edge reduction as one coalesced window at its next update.
    """
    for _unused in range(max_iterations):
        changed = prune_unreachable(graph)
        changed += parallel_merge(graph)
        changed += serial_merge(graph)
        changed += parallel_merge(graph)
        if changed == 0:
            break
    return graph
