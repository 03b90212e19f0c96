"""Structure-of-arrays view of a timing graph plus levelized schedules.

:class:`GraphArrays` flattens a :class:`~repro.timing.graph.TimingGraph`
into the canonical-batch layout of :mod:`repro.core.batch`: one row per
edge, with the edge delay's mean, fused correlated coefficients (global
coefficient in column 0, local PCA coefficients after it) and private-part
variance in parallel arrays.  Every vectorized engine — the levelized SSTA
propagation, the all-pairs analysis, the corner STA and the Monte Carlo
samplers — shares this one representation.

On top of the flat arrays it provides *levelized* propagation schedules:
vertices are grouped by longest-path depth from the sources (forward) or to
the sinks (backward), and each level stores its vertices' fanin (or fanout)
edge rows as one padded matrix.  A propagation engine then processes a
whole level at a time: round ``r`` folds the ``r``-th fanin edge of every
vertex of the level in a single batched Clark reduction, preserving the
per-vertex edge order of the object-level engine exactly.  Within a level
the vertices are sorted by descending degree, so the vertices participating
in round ``r`` are always a prefix — engines fold contiguous array slices
instead of masked gathers.

The view is an **incrementally maintainable cache**: it records the graph
revision it was built at and :meth:`GraphArrays.refresh` replays the graph's
change journal.  Pure delay retimes are patched into the edge arrays in
place (the levelized schedules stay valid); structural edits rebuild the
edge arrays and invalidate the schedules while reporting how vertex rows
moved so per-vertex engine state can be migrated; only a journal overflow
forces the blind full rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.batch import CanonicalBatch
from repro.errors import TimingGraphError
from repro.timing.graph import GraphDelta, TimingGraph

__all__ = ["ArraysRefresh", "GraphArrays", "PropagationLevel"]


@dataclass(frozen=True)
class PropagationLevel:
    """One level of a levelized propagation schedule.

    ``vertex_rows`` lists the vertex rows of this level, sorted by
    descending degree; ``edge_matrix`` has shape
    ``(len(vertex_rows), max_degree)`` and holds the edge rows of each
    vertex's fanin (forward) or fanout (backward) edges in graph order,
    padded with ``-1``; ``round_counts[r]`` is the number of leading
    vertices that still have an ``r``-th edge, so round ``r`` of a fold
    operates on the contiguous prefix ``[:round_counts[r]]``.
    """

    vertex_rows: np.ndarray
    edge_matrix: np.ndarray
    round_counts: np.ndarray


@dataclass(frozen=True)
class ArraysRefresh:
    """Outcome of one :meth:`GraphArrays.refresh` call.

    ``kind`` is ``"none"`` (nothing to do), ``"delay"`` (edge arrays patched
    in place, schedules untouched), ``"structure"`` (edge arrays and
    schedules rebuilt from the journal; ``row_map`` reports vertex-row
    movement) or ``"rebuild"`` (journal overflow: blind full rebuild).
    ``delta`` is the coalesced journal window (``None`` for ``"rebuild"``);
    ``row_map`` maps old vertex rows to new ones (``-1`` for removed
    vertices) and is ``None`` when rows did not move; ``retimed_edge_rows``
    holds the patched edge rows for ``"delay"`` refreshes.
    """

    kind: str
    delta: Optional[GraphDelta] = None
    row_map: Optional[np.ndarray] = None
    retimed_edge_rows: Optional[np.ndarray] = None


@dataclass
class GraphArrays:
    """Array view of a timing graph used by the vectorized engines."""

    graph: TimingGraph
    vertex_index: Dict[str, int]
    edge_rows: Dict[int, int]
    edge_ids: np.ndarray
    edge_source: np.ndarray
    edge_sink: np.ndarray
    edge_mean: np.ndarray
    edge_corr: np.ndarray
    edge_randvar: np.ndarray
    revision: int = 0
    _forward_levels: Optional[List[PropagationLevel]] = field(
        default=None, repr=False, compare=False
    )
    _backward_levels: Optional[List[PropagationLevel]] = field(
        default=None, repr=False, compare=False
    )
    _out_adjacency: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default=None, repr=False, compare=False
    )
    _in_adjacency: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def from_graph(cls, graph: TimingGraph) -> "GraphArrays":
        """Convert a timing graph into flat numpy arrays."""
        self = cls(
            graph=graph,
            vertex_index={},
            edge_rows={},
            edge_ids=np.empty(0, dtype=np.int64),
            edge_source=np.empty(0, dtype=np.int64),
            edge_sink=np.empty(0, dtype=np.int64),
            edge_mean=np.empty(0, dtype=float),
            edge_corr=np.empty((0, 1), dtype=float),
            edge_randvar=np.empty(0, dtype=float),
        )
        self._rebuild()
        return self

    def _rebuild(self) -> None:
        """Recompute every array from the graph; invalidates all caches."""
        graph = self.graph
        graph.topological_order()  # validates acyclicity up front
        vertices = list(graph.vertices)
        self.vertex_index = {name: index for index, name in enumerate(vertices)}

        edges = graph.edges
        num_edges = len(edges)
        num_corr = graph.num_locals + 1
        self.edge_rows = {edge.edge_id: row for row, edge in enumerate(edges)}
        self.edge_ids = np.fromiter(
            (edge.edge_id for edge in edges), np.int64, num_edges
        )
        self.edge_source = np.fromiter(
            (self.vertex_index[edge.source] for edge in edges), np.int64, num_edges
        )
        self.edge_sink = np.fromiter(
            (self.vertex_index[edge.sink] for edge in edges), np.int64, num_edges
        )
        self.edge_mean = np.fromiter(
            (edge.delay.nominal for edge in edges), float, num_edges
        )
        edge_randvar = np.fromiter(
            (edge.delay.random_coeff for edge in edges), float, num_edges
        )
        np.square(edge_randvar, out=edge_randvar)
        self.edge_randvar = edge_randvar

        edge_corr = np.zeros((num_edges, num_corr), dtype=float)
        edge_corr[:, 0] = np.fromiter(
            (edge.delay.global_coeff for edge in edges), float, num_edges
        )
        if num_corr > 1 and num_edges:
            if all(edge.delay.num_locals == num_corr - 1 for edge in edges):
                edge_corr[:, 1:] = np.stack(
                    [edge.delay.local_coeffs for edge in edges]
                )
            else:  # ragged local widths: pad row by row
                for row, edge in enumerate(edges):
                    locals_ = edge.delay.local_coeffs
                    edge_corr[row, 1 : 1 + locals_.shape[0]] = locals_
        self.edge_corr = edge_corr

        self.revision = graph.revision
        self._forward_levels = None
        self._backward_levels = None
        self._out_adjacency = None
        self._in_adjacency = None

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def _patch_edge_delay(self, row: int, delay) -> None:
        self.edge_mean[row] = delay.nominal
        self.edge_randvar[row] = delay.random_coeff * delay.random_coeff
        self.edge_corr[row, :] = 0.0
        self.edge_corr[row, 0] = delay.global_coeff
        self.edge_corr[row, 1 : 1 + delay.num_locals] = delay.local_coeffs

    def refresh(self) -> ArraysRefresh:
        """Bring the view up to date with the graph's current revision.

        Replays the change journal since :attr:`revision`: pure retimes are
        patched into the edge arrays in place (levelized schedules stay
        valid); structural windows rebuild the edge arrays and report a
        ``row_map`` describing how vertex rows moved (``None`` when the
        vertex set — and therefore every row — is unchanged).  Raises
        :class:`~repro.errors.TimingGraphError` if this view is attached to
        a graph that is *behind* its sync revision (a stale session).

        Calling ``refresh`` opts the graph into journaling (one-shot views
        that never refresh keep it off and pay nothing): the first call on
        a graph with unjournaled history is a full rebuild, subsequent
        calls replay incrementally.
        """
        self.graph.enable_journal()
        delta = self.graph.changes_since(self.revision)
        if delta is None:
            # Journal overflow: blind full rebuild.  No row map is reported;
            # consumers of a "rebuild" refresh recompute their state anyway.
            self._rebuild()
            return ArraysRefresh("rebuild")
        if delta.empty:
            self.revision = delta.target_revision
            return ArraysRefresh("none", delta)
        if not delta.structural or (delta.io_changed and not (
            delta.added_edges or delta.removed_edges
            or delta.added_vertices or delta.removed_vertices
        )):
            # Delay-only (and/or pure I/O-designation) window: patch rows in
            # place.  Input/output rows are live properties, so an I/O
            # change needs no array work here.
            rows = np.asarray(
                [self.edge_rows[edge_id] for edge_id in delta.retimed_edges],
                dtype=np.int64,
            )
            for edge_id in delta.retimed_edges:
                self._patch_edge_delay(
                    self.edge_rows[edge_id], self.graph.edge(edge_id).delay
                )
            self.revision = delta.target_revision
            return ArraysRefresh("delay", delta, retimed_edge_rows=rows)
        row_map = self._patch_structure(delta)
        return ArraysRefresh("structure", delta, row_map=row_map)

    def _patch_structure(self, delta: GraphDelta) -> Optional[np.ndarray]:
        """Patch the edge arrays for a structural window; returns the row map.

        Surviving edge rows are kept with one vectorized mask (the graph's
        edge dictionary preserves insertion order, so "old order minus
        removals plus additions at the end" is exactly the new edge
        iteration order); only the *added* edges are converted row by row.
        The levelized schedules and adjacency caches are invalidated and
        rebuilt lazily.  Returns the old-row to new-row vertex mapping, or
        ``None`` when the vertex set (and thus every row) is unchanged.
        """
        graph = self.graph

        row_map: Optional[np.ndarray] = None
        if delta.added_vertices or delta.removed_vertices:
            old_index = self.vertex_index
            new_index = {name: row for row, name in enumerate(graph.vertices)}
            row_map = np.full(len(old_index), -1, dtype=np.int64)
            for name, row in old_index.items():
                row_map[row] = new_index.get(name, -1)
            self.vertex_index = new_index

        keep = None
        if delta.removed_edges:
            removed = np.fromiter(
                (edge_id for edge_id, _source, _sink in delta.removed_edges),
                np.int64,
                len(delta.removed_edges),
            )
            keep = ~np.isin(self.edge_ids, removed)
        kept_source = self.edge_source if keep is None else self.edge_source[keep]
        kept_sink = self.edge_sink if keep is None else self.edge_sink[keep]
        if row_map is not None:
            kept_source = row_map[kept_source]
            kept_sink = row_map[kept_sink]

        num_corr = self.num_corr
        added = [graph.edge(edge_id) for edge_id in delta.added_edges]
        num_added = len(added)
        added_corr = np.zeros((num_added, num_corr), dtype=float)
        for row, edge in enumerate(added):
            delay = edge.delay
            added_corr[row, 0] = delay.global_coeff
            added_corr[row, 1 : 1 + delay.num_locals] = delay.local_coeffs
        index = self.vertex_index

        def _extend(kept: np.ndarray, values, dtype) -> np.ndarray:
            if not added:
                return kept if keep is None else np.ascontiguousarray(kept)
            tail = np.fromiter(values, dtype, num_added)
            return np.concatenate([kept, tail])

        self.edge_ids = _extend(
            self.edge_ids if keep is None else self.edge_ids[keep],
            (edge.edge_id for edge in added), np.int64,
        )
        self.edge_source = _extend(
            kept_source, (index[edge.source] for edge in added), np.int64
        )
        self.edge_sink = _extend(
            kept_sink, (index[edge.sink] for edge in added), np.int64
        )
        self.edge_mean = _extend(
            self.edge_mean if keep is None else self.edge_mean[keep],
            (edge.delay.nominal for edge in added), float,
        )
        self.edge_randvar = _extend(
            self.edge_randvar if keep is None else self.edge_randvar[keep],
            # x * x, not x ** 2: libm pow can round one ulp differently, and
            # the patch path must stay bitwise-identical to a full rebuild.
            (edge.delay.random_coeff * edge.delay.random_coeff for edge in added),
            float,
        )
        kept_corr = self.edge_corr if keep is None else self.edge_corr[keep]
        self.edge_corr = (
            np.concatenate([kept_corr, added_corr]) if added else
            (kept_corr if keep is None else np.ascontiguousarray(kept_corr))
        )
        self.edge_rows = {
            int(edge_id): row for row, edge_id in enumerate(self.edge_ids)
        }
        for edge_id in delta.retimed_edges:
            self._patch_edge_delay(self.edge_rows[edge_id], graph.edge(edge_id).delay)

        self.revision = delta.target_revision
        self._forward_levels = None
        self._backward_levels = None
        self._out_adjacency = None
        self._in_adjacency = None
        return row_map

    # ------------------------------------------------------------------
    # Columnar snapshots (the repro.store persistence layer)
    # ------------------------------------------------------------------
    _SNAPSHOT_FIELDS = (
        "edge_ids", "edge_source", "edge_sink",
        "edge_mean", "edge_corr", "edge_randvar",
    )

    def snapshot_columns(self, prefix: str = "arrays.") -> Dict[str, np.ndarray]:
        """The view as named store columns: six edge arrays + vertex names.

        The vertex naming is captured in the snapshot itself (one unicode
        column in row order) rather than re-derived from the graph on
        load, so a restored view indexes exactly the vertex rows its state
        arrays were computed against — even when the live graph has since
        moved ahead of the snapshot revision.
        """
        columns = {
            prefix + name: getattr(self, name) for name in self._SNAPSHOT_FIELDS
        }
        names = list(self.vertex_index)
        columns[prefix + "vertex_names"] = (
            np.array(names, dtype=np.str_) if names else np.empty(0, dtype="<U1")
        )
        return columns

    @classmethod
    def from_columns(
        cls,
        graph: TimingGraph,
        columns: Mapping[str, np.ndarray],
        revision: int,
        prefix: str = "arrays.",
    ) -> "GraphArrays":
        """Rebuild a view from stored columns, skipping the O(E) graph walk.

        The columns must come from :meth:`snapshot_columns` taken of (a
        graph equal to) ``graph`` at ``revision``.  The edge arrays are
        copied out of the (possibly memory-mapped) columns because
        ``refresh()`` patches them in place — a later retime must never
        write through to the store file.
        """
        edge_ids = np.array(columns[prefix + "edge_ids"], dtype=np.int64)
        return cls(
            graph=graph,
            vertex_index={
                str(name): row
                for row, name in enumerate(columns[prefix + "vertex_names"])
            },
            edge_rows={int(edge_id): row for row, edge_id in enumerate(edge_ids)},
            edge_ids=edge_ids,
            edge_source=np.array(columns[prefix + "edge_source"], dtype=np.int64),
            edge_sink=np.array(columns[prefix + "edge_sink"], dtype=np.int64),
            edge_mean=np.array(columns[prefix + "edge_mean"], dtype=float),
            edge_corr=np.array(columns[prefix + "edge_corr"], dtype=float),
            edge_randvar=np.array(columns[prefix + "edge_randvar"], dtype=float),
            revision=int(revision),
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_corr(self) -> int:
        """Number of correlated components (1 global + K locals)."""
        return int(self.edge_corr.shape[1])

    @property
    def topo_order(self) -> List[str]:
        """Topological vertex order (the graph's cached order, copied)."""
        return self.graph.topological_order()

    @property
    def num_vertices(self) -> int:
        """Number of vertices of the underlying graph."""
        return self.graph.num_vertices

    @property
    def input_rows(self) -> np.ndarray:
        """Vertex rows of the designated graph inputs."""
        return np.asarray(
            [self.vertex_index[name] for name in self.graph.inputs], dtype=np.int64
        )

    @property
    def output_rows(self) -> np.ndarray:
        """Vertex rows of the designated graph outputs."""
        return np.asarray(
            [self.vertex_index[name] for name in self.graph.outputs], dtype=np.int64
        )

    @property
    def edge_batch(self) -> CanonicalBatch:
        """Zero-copy :class:`CanonicalBatch` view of all edge delays."""
        return CanonicalBatch.from_mean_corr_randvar(
            self.edge_mean, self.edge_corr, self.edge_randvar
        )

    def nbytes_report(self) -> Dict[str, int]:
        """Byte accounting of the view's NumPy state: per field plus total.

        Mirrors :meth:`repro.parallel.shm.SharedArraysHandle.nbytes_report`:
        one entry per edge-array field, plus the lazily built levelized
        schedules and adjacency indices (0 until first use), plus a
        ``"total"``.  Python-object bookkeeping (the ``vertex_index`` /
        ``edge_rows`` dicts and the graph itself) is not counted — this is
        the array working set that scales with ``E`` and ``V``, the figure
        the memory-budget knobs reason about.
        """
        report = {
            name: int(getattr(self, name).nbytes)
            for name in (
                "edge_ids", "edge_source", "edge_sink",
                "edge_mean", "edge_corr", "edge_randvar",
            )
        }
        for key, levels in (
            ("forward_levels", self._forward_levels),
            ("backward_levels", self._backward_levels),
        ):
            report[key] = sum(
                int(
                    level.vertex_rows.nbytes
                    + level.edge_matrix.nbytes
                    + level.round_counts.nbytes
                )
                for level in (levels or ())
            )
        report["adjacency"] = sum(
            int(array.nbytes)
            for adjacency in (self._out_adjacency, self._in_adjacency)
            if adjacency is not None
            for array in adjacency
        )
        report["total"] = sum(report.values())
        return report

    # ------------------------------------------------------------------
    # Adjacency (edge rows grouped by endpoint vertex row)
    # ------------------------------------------------------------------
    def _adjacency(
        self, keys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        order = np.argsort(keys, kind="stable")
        counts = np.bincount(keys, minlength=self.graph.num_vertices)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        return order, starts, counts

    def _gather_adjacent(
        self,
        adjacency: Tuple[np.ndarray, np.ndarray, np.ndarray],
        rows: np.ndarray,
    ) -> np.ndarray:
        order, starts, counts = adjacency
        degrees = counts[rows]
        total = int(degrees.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        offsets = np.arange(total) - np.repeat(np.cumsum(degrees) - degrees, degrees)
        return order[np.repeat(starts[rows], degrees) + offsets]

    def _source_adjacency(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._out_adjacency is None:
            self._out_adjacency = self._adjacency(self.edge_source)
        return self._out_adjacency

    def _sink_adjacency(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._in_adjacency is None:
            self._in_adjacency = self._adjacency(self.edge_sink)
        return self._in_adjacency

    def fanout_counts(self) -> np.ndarray:
        """Per-vertex fanout edge counts (indexed by vertex row)."""
        return self._source_adjacency()[2]

    def fanin_counts(self) -> np.ndarray:
        """Per-vertex fanin edge counts (indexed by vertex row)."""
        return self._sink_adjacency()[2]

    def out_edges_of(self, rows: np.ndarray) -> np.ndarray:
        """Edge rows leaving any of the given vertex rows (grouped by row)."""
        return self._gather_adjacent(self._source_adjacency(), rows)

    def in_edges_of(self, rows: np.ndarray) -> np.ndarray:
        """Edge rows entering any of the given vertex rows (grouped by row)."""
        return self._gather_adjacent(self._sink_adjacency(), rows)

    # ------------------------------------------------------------------
    # Levelized schedules
    # ------------------------------------------------------------------
    def forward_levels(self) -> List[PropagationLevel]:
        """Levelized forward schedule (fanin edges, ascending source depth)."""
        if self._forward_levels is None:
            self._forward_levels = self._build_levels(
                into=self.edge_sink,
                into_adjacency=self._sink_adjacency(),
                out_adjacency=self._source_adjacency(),
            )
        return self._forward_levels

    def backward_levels(self) -> List[PropagationLevel]:
        """Levelized backward schedule (fanout edges, ascending sink depth)."""
        if self._backward_levels is None:
            self._backward_levels = self._build_levels(
                into=self.edge_source,
                into_adjacency=self._source_adjacency(),
                out_adjacency=self._sink_adjacency(),
            )
        return self._backward_levels

    def _build_levels(
        self,
        into: np.ndarray,
        into_adjacency: Tuple[np.ndarray, np.ndarray, np.ndarray],
        out_adjacency: Tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> List[PropagationLevel]:
        """Group vertices by longest-path depth along the ``into`` direction.

        ``into`` holds, per edge, the vertex row that folds the edge (the
        sink for forward propagation, the source for backward);
        ``into_adjacency`` is its cached CSR grouping and ``out_adjacency``
        the opposite direction's (shared with the incremental engine's
        dirty-cone traversal).  The depth of a vertex is the longest edge
        count of any path reaching it, computed with a level-synchronous
        Kahn sweep: a vertex is released the iteration after its last
        predecessor, so its release round *is* its longest-path depth, and
        every round is a handful of vectorized gathers/bincounts over the
        current frontier's edges.
        """
        num_vertices = self.graph.num_vertices
        num_edges = into.shape[0]
        if num_edges == 0:
            return []

        # Per-vertex folded-edge rows, in edge insertion order (the order of
        # TimingGraph.fanin_edges / fanout_edges): the CSR grouping's stable
        # sort keeps rows of equal vertices in insertion order.
        order, starts, counts = into_adjacency

        depth = np.zeros(num_vertices, dtype=np.int64)
        remaining = counts.copy()
        frontier = np.nonzero(remaining == 0)[0]
        level = 0
        while frontier.size:
            leaving = self._gather_adjacent(out_adjacency, frontier)
            if leaving.size == 0:
                break
            released = np.bincount(into[leaving], minlength=num_vertices)
            remaining -= released
            level += 1
            newly = (remaining == 0) & (released > 0)
            depth[newly] = level
            frontier = np.nonzero(newly)[0]
        if np.any(remaining > 0):
            # Vertices that were never released lie on a cycle (the
            # incremental patch path skips the eager topological check).
            raise TimingGraphError(
                "timing graph %r contains a cycle" % self.graph.name
            )

        levels: List[PropagationLevel] = []
        positions = None
        for level in range(1, int(depth.max()) + 1):
            rows = np.nonzero(depth == level)[0]
            level_counts = counts[rows]
            by_degree = np.argsort(-level_counts, kind="stable")
            rows = rows[by_degree]
            level_counts = level_counts[by_degree]
            width = int(level_counts[0])
            if positions is None or positions.shape[0] < width:
                positions = np.arange(width, dtype=np.int64)
            pos = positions[:width]
            gathered = starts[rows][:, np.newaxis] + pos[np.newaxis, :]
            present = pos[np.newaxis, :] < level_counts[:, np.newaxis]
            edge_matrix = np.where(
                present, order[np.minimum(gathered, num_edges - 1)], -1
            )
            round_counts = present.sum(axis=0)
            levels.append(PropagationLevel(rows, edge_matrix, round_counts))
        return levels


def _graph_arrays(
    graph: TimingGraph, arrays: Optional[GraphArrays], argument: str = "arrays"
) -> GraphArrays:
    """The caller's prebuilt ``arrays`` if they are current, else a fresh build.

    Prebuilt arrays are never refreshed here — they may belong to a
    session — so arrays of another graph, or of an older revision of this
    one, raise :class:`~repro.errors.TimingGraphError` instead of being
    analysed with stale delays; the message names the caller's ``argument``.
    """
    if arrays is None:
        return GraphArrays.from_graph(graph)
    if arrays.graph is not graph or arrays.revision != graph.revision:
        raise TimingGraphError(
            "stale %s=: built from %s at revision %d, but %r is at "
            "revision %d; refresh or rebuild it, or drop %s="
            % (
                argument,
                "this graph" if arrays.graph is graph
                else "graph %r" % arrays.graph.name,
                arrays.revision,
                graph.name,
                graph.revision,
                argument,
            )
        )
    return arrays
