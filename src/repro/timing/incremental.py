"""Incremental SSTA: dirty-cone repropagation over a revisioned graph.

An :class:`IncrementalTimer` is a query-serving session attached to one
:class:`~repro.timing.graph.TimingGraph`.  It runs one full levelized pass
(arrivals forward, required times backward) and afterwards keeps the result
alive across graph edits: every :meth:`IncrementalTimer.update` reads the
graph's coalesced change journal, patches the session's private
:class:`~repro.timing.arrays.GraphArrays` view, seeds a dirty-vertex
frontier from the edited edges, and repropagates **only the affected cone**
with the one-shot passes' per-level fold
(:func:`~repro.timing.propagation._fold_level`) — processing, per
topological level, just the dirty subset of its vertices and stopping a
branch of the sweep as soon as a recomputed time converges back to the
cached value.  The walk is
:func:`~repro.timing.arrays._sweep_cone`, the one dirty-cone walker of the
three incremental sessions (this timer, the all-pairs session and the Monte
Carlo session): it builds the level schedule before any write, so an edit
that closes a cycle raises with the state untouched and the cone queued.

Because the dirty subset preserves each level's descending-degree order,
the per-vertex candidate fold order is identical to the full pass, so
incremental results match a from-scratch repropagation to floating-point
round-off — the property the randomized edit-sequence tests assert at
1e-9.

Queries (:meth:`arrival_at`, :meth:`slack_at`, :meth:`circuit_delay`,
:meth:`criticalities`, ...) lazily trigger ``update()``, so a consumer just
edits the graph and asks; an arbitrarily long edit burst — a whole
graph-reduction fixpoint, a hierarchical block swap — coalesces into one
incremental update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import CanonicalBatch, FoldWorkspace, pad_corr, tightness_arrays
from repro.core.canonical import CanonicalForm
from repro.errors import TimingGraphError
from repro.timing.arrays import GraphArrays, _merge_dirty, _migrate_rows, _sweep_cone
from repro.timing.graph import TimingGraph
from repro.timing.propagation import (
    State,
    _arrival_times,
    _fold_level,
    _required_times,
    _seed_arrivals,
    _seed_required,
    _write_moved,
)

__all__ = ["IncrementalTimer", "UpdateStats"]


@dataclass(frozen=True)
class UpdateStats:
    """What one :meth:`IncrementalTimer.update` call actually did.

    ``mode`` is ``"noop"`` (empty journal), ``"incremental"`` (dirty-cone
    repropagation) or ``"full"`` (first pass, journal overflow or an
    input/output designation change).  The ``*_recomputed`` counts are the
    vertices whose times were re-evaluated — the size of the dirty cone,
    not of the graph.
    """

    mode: str
    revision: int
    forward_recomputed: int
    backward_recomputed: int


class _PassState:
    """Per-vertex SoA canonical state of one propagation direction.

    ``mean``/``corr``/``randvar``/``valid`` mirror the layout of
    :class:`~repro.timing.propagation.VertexTimes`; the ``seed_*`` arrays
    hold the boundary conditions (input arrivals forward, negated required
    times at outputs backward) that the level folds merge exactly like a
    full pass does.
    """

    __slots__ = (
        "mean", "corr", "randvar", "valid",
        "seed_mean", "seed_corr", "seed_randvar", "seed_valid",
    )

    def __init__(self, num_vertices: int, width: int) -> None:
        self.mean = np.zeros(num_vertices, dtype=float)
        self.corr = np.zeros((num_vertices, width), dtype=float)
        self.randvar = np.zeros(num_vertices, dtype=float)
        self.valid = np.zeros(num_vertices, dtype=bool)
        self.seed_mean = np.zeros(num_vertices, dtype=float)
        self.seed_corr = np.zeros((num_vertices, width), dtype=float)
        self.seed_randvar = np.zeros(num_vertices, dtype=float)
        self.seed_valid = np.zeros(num_vertices, dtype=bool)

    @property
    def width(self) -> int:
        return int(self.corr.shape[1])

    @property
    def values(self) -> State:
        return self.mean, self.corr, self.randvar, self.valid

    @property
    def seeds(self) -> State:
        return self.seed_mean, self.seed_corr, self.seed_randvar, self.seed_valid

    def migrated(self, row_map: np.ndarray, num_vertices: int) -> "_PassState":
        """State re-indexed through ``row_map`` (new rows start invalid).

        Seed arrays are *not* migrated — the caller rebuilds them against
        the new vertex indexing.
        """
        new = _PassState(num_vertices, self.width)
        new.mean, new.corr, new.randvar, new.valid = (
            _migrate_rows(array, row_map, num_vertices) for array in self.values
        )
        return new

    def clear_seeds(self) -> None:
        self.seed_mean[:] = 0.0
        self.seed_corr[:] = 0.0
        self.seed_randvar[:] = 0.0
        self.seed_valid[:] = False


def _form_to_list(form: CanonicalForm) -> List[float]:
    """Flatten a canonical form to ``[nominal, global, random, locals...]``.

    The coefficient order of :mod:`repro.model.serialization`; JSON floats
    round-trip exactly (shortest-repr), so snapshot metadata stays
    bit-stable.
    """
    return (
        [float(form.nominal), float(form.global_coeff), float(form.random_coeff)]
        + [float(value) for value in form.local_coeffs]
    )


def _form_from_list(values: Sequence[float]) -> CanonicalForm:
    return CanonicalForm(values[0], values[1], values[3:], values[2])


def _require_finite(form: CanonicalForm, what: str) -> None:
    if not form.is_finite:
        raise ValueError(
            "IncrementalTimer requires finite %s (nominal %r)" % (what, form.nominal)
        )


class IncrementalTimer:
    """A reusable timing session serving queries over an evolving graph.

    Parameters
    ----------
    graph:
        The timing graph to attach to.  The session observes the graph's
        change journal; it never mutates the graph itself.
    input_arrivals:
        Optional arrival time per input vertex (defaults to a
        deterministic zero), exactly as in
        :func:`~repro.timing.propagation.propagate_arrival_times`.
    required_time:
        The timing constraint applied at every output for the backward
        pass (defaults to a deterministic zero, matching
        :func:`~repro.timing.propagation.propagate_required_times`).
    """

    def __init__(
        self,
        graph: TimingGraph,
        input_arrivals: Optional[Mapping[str, CanonicalForm]] = None,
        required_time: Optional[CanonicalForm] = None,
    ) -> None:
        self._graph = graph
        self._input_arrivals: Dict[str, CanonicalForm] = dict(input_arrivals or {})
        for name, form in self._input_arrivals.items():
            _require_finite(form, "input arrival %r" % name)
        if required_time is None:
            required_time = CanonicalForm.constant(0.0, graph.num_locals)
        _require_finite(required_time, "required time")
        self._required_time = required_time

        graph.enable_journal()  # sessions sync incrementally from here on
        self._arrays = GraphArrays.from_graph(graph)
        self._width = max(
            self._arrays.num_corr,
            required_time.num_locals + 1,
            max(
                (form.num_locals + 1 for form in self._input_arrivals.values()),
                default=1,
            ),
        )
        self._edge_corr_w = pad_corr(self._arrays.edge_corr, self._width)
        self._fwd: Optional[_PassState] = None
        self._bwd: Optional[_PassState] = None
        # Dirty frontiers accumulated by journal syncs and drained lazily,
        # per direction: a pure circuit-delay what-if only ever pays for
        # the forward cone, the backward cone stays pending until a
        # slack/required/criticality query needs it.
        self._pending_fwd: Optional[np.ndarray] = None
        self._pending_bwd: Optional[np.ndarray] = None
        self._delay_cache: Optional[Tuple[int, CanonicalForm]] = None
        self.last_update: Optional[UpdateStats] = None
        # Why a warm start fell back to a cold rebuild (None for cold
        # sessions and for genuinely warm loads); set by repro.store.
        self.store_fallback_reason: Optional[str] = None

    # ------------------------------------------------------------------
    # Session accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> TimingGraph:
        """The graph this session is attached to."""
        return self._graph

    @property
    def arrays(self) -> GraphArrays:
        """The session's (incrementally maintained) array view."""
        return self._arrays

    @property
    def revision(self) -> int:
        """Graph revision the session state currently reflects."""
        return self._arrays.revision

    @property
    def required_time(self) -> CanonicalForm:
        """The constraint applied at every output by the backward pass."""
        return self._required_time

    def set_required_time(self, required_time: CanonicalForm) -> None:
        """Change the output constraint; recomputes the backward state."""
        _require_finite(required_time, "required time")
        # Install the constraint first: if the sync below ends up running a
        # full pass (first use, journal overflow, I/O change), that pass
        # already seeds the backward state from the new constraint and no
        # second backward pass is needed.
        self._required_time = required_time
        self._ensure_width(required_time.num_locals + 1)
        if self._sync_structures():
            return
        # Drain the forward direction only: the pending backward cone is
        # superseded by the full backward recompute, so sweeping it first
        # would be wasted work.
        self._drain(backward=False)
        self._pending_bwd = None
        self._recompute_backward_full()

    # ------------------------------------------------------------------
    # Columnar snapshots (the repro.store persistence layer)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
        """The session's per-vertex state as store columns plus codec meta.

        Runs :meth:`update` first, so the snapshot is taken exactly at the
        graph's current revision with both dirty cones drained — the
        invariant the warm-start loader relies on (it restores with empty
        pending sets).
        """
        self.update()
        columns: Dict[str, np.ndarray] = {}
        for tag, state in (("fwd", self._fwd), ("bwd", self._bwd)):
            for name in _PassState.__slots__:
                columns["%s.%s" % (tag, name)] = getattr(state, name)
        meta = {
            "width": int(self._width),
            "required_time": _form_to_list(self._required_time),
            "input_arrivals": {
                name: _form_to_list(form)
                for name, form in self._input_arrivals.items()
            },
        }
        return columns, meta

    @staticmethod
    def _restore_pass_state(
        columns: Mapping[str, np.ndarray], tag: str, num_vertices: int
    ) -> _PassState:
        state = _PassState.__new__(_PassState)
        for name in _PassState.__slots__:
            array = np.asarray(columns["%s.%s" % (tag, name)])
            if array.shape[0] != num_vertices:
                raise ValueError(
                    "snapshot column %s.%s covers %d vertices, expected %d"
                    % (tag, name, array.shape[0], num_vertices)
                )
            setattr(state, name, array)
        return state

    @classmethod
    def from_snapshot(
        cls,
        graph: TimingGraph,
        arrays: GraphArrays,
        columns: Mapping[str, np.ndarray],
        meta: Mapping[str, Any],
    ) -> "IncrementalTimer":
        """Attach a warm session from stored columns — no propagation run.

        ``arrays`` must reflect the snapshot's revision; ``graph`` may be
        *ahead* of it — the journal window in between replays through the
        ordinary ``refresh()``/dirty-cone paths at the first query, so a
        warm-started session is bit-identical to one that never restarted.
        The session keeps the state arrays it is handed and patches them in
        place; the store's loaders hand over private copy-on-write views.
        """
        self = cls.__new__(cls)
        self._graph = graph
        self._input_arrivals = {
            name: _form_from_list(values)
            for name, values in meta["input_arrivals"].items()
        }
        self._required_time = _form_from_list(meta["required_time"])
        graph.enable_journal()
        self._arrays = arrays
        self._width = int(meta["width"])
        self._edge_corr_w = pad_corr(arrays.edge_corr, self._width)
        num_vertices = len(arrays.vertex_index)
        self._fwd = self._restore_pass_state(columns, "fwd", num_vertices)
        self._bwd = self._restore_pass_state(columns, "bwd", num_vertices)
        self._pending_fwd = None
        self._pending_bwd = None
        self._delay_cache = None
        self.last_update = None
        self.store_fallback_reason = None
        return self

    def save(self, path):
        """Persist this session as one columnar store entry; returns the path.

        Convenience wrapper over :func:`repro.store.save_incremental_timer`.
        """
        from repro.store import save_incremental_timer

        return save_incremental_timer(self, path)

    @classmethod
    def load(cls, path, graph=None, on_overflow="error") -> "IncrementalTimer":
        """Warm-start a session from a store entry.

        Convenience wrapper over :func:`repro.store.load_incremental_timer`;
        see there for the ``graph``/``on_overflow`` semantics.
        """
        from repro.store import load_incremental_timer

        return load_incremental_timer(path, graph=graph, on_overflow=on_overflow)

    # ------------------------------------------------------------------
    # The update engine
    # ------------------------------------------------------------------
    def update(self) -> UpdateStats:
        """Synchronise the session with the graph's current revision.

        Replays the journal and drains the dirty cones of *both*
        directions (including cones left pending by direction-lazy queries
        such as :meth:`circuit_delay`).  No-op when nothing is pending.
        Raises :class:`~repro.errors.TimingGraphError` when the session is
        stale (attached to a graph that is behind its sync revision — e.g.
        a mixed-up copy).
        """
        full = self._sync_structures()
        if full:
            return self.last_update
        forward = self._drain(backward=False)
        backward = self._drain(backward=True)
        mode = "incremental" if (forward or backward) else "noop"
        stats = UpdateStats(mode, self.revision, forward, backward)
        self.last_update = stats
        return stats

    def sync(self) -> None:
        """Replay the journal into the array cache without sweeping.

        Queues the dirty frontiers but leaves them pending, so consumers
        that only need the maintained :class:`GraphArrays` view (e.g.
        :func:`~repro.timing.sta.corner_sta`) pay no statistical
        repropagation — windows that would require a full pass (journal
        overflow, input/output changes) just drop the cached statistical
        state instead; everything pending drains at the next timing query.
        """
        self._sync_structures(allow_full_pass=False)

    def _invalidate_state(self) -> None:
        """Drop the statistical state; the next timing query rebuilds it."""
        self._fwd = None
        self._bwd = None
        self._pending_fwd = None
        self._pending_bwd = None
        self._delay_cache = None

    def _sync_structures(self, allow_full_pass: bool = True) -> bool:
        """Consume the journal into arrays, seeds and pending dirty sets.

        Runs no sweeps (they are drained lazily per direction); returns
        True when the window demanded a full repropagation instead — first
        pass, journal overflow, or an input/output designation change
        (which moves the boundary conditions themselves).  On those
        windows the full pass runs immediately, unless
        ``allow_full_pass=False`` (the structure-only :meth:`sync` path),
        in which case the stale statistical state is merely dropped.
        """
        if self._fwd is None:
            self._arrays.refresh()
            self._edge_corr_w = pad_corr(self._arrays.edge_corr, self._width)
            if allow_full_pass:
                self._full_pass()
                self._record_full_stats()
            return True

        refresh = self._arrays.refresh()
        if refresh.kind == "none":
            return False

        delta = refresh.delta
        if refresh.kind == "rebuild" or (delta is not None and delta.io_changed):
            self._edge_corr_w = pad_corr(self._arrays.edge_corr, self._width)
            if allow_full_pass:
                self._full_pass()
                self._record_full_stats()
            else:
                self._invalidate_state()
            return True

        if refresh.kind == "delay":
            if self._edge_corr_w is not self._arrays.edge_corr:
                rows = refresh.retimed_edge_rows
                self._edge_corr_w[rows, : self._arrays.num_corr] = (
                    self._arrays.edge_corr[rows]
                )
                self._edge_corr_w[rows, self._arrays.num_corr :] = 0.0
        else:  # "structure"
            self._edge_corr_w = pad_corr(self._arrays.edge_corr, self._width)
            if refresh.row_map is not None:
                num_vertices = self._arrays.num_vertices
                self._fwd = self._fwd.migrated(refresh.row_map, num_vertices)
                self._bwd = self._bwd.migrated(refresh.row_map, num_vertices)
                self._pending_fwd = self._migrate_pending(
                    self._pending_fwd, refresh.row_map, num_vertices
                )
                self._pending_bwd = self._migrate_pending(
                    self._pending_bwd, refresh.row_map, num_vertices
                )
            self._build_seeds()

        fwd_dirty, bwd_dirty = self._arrays.dirty_frontiers(delta)
        self._pending_fwd = _merge_dirty(self._pending_fwd, fwd_dirty)
        self._pending_bwd = _merge_dirty(self._pending_bwd, bwd_dirty)
        return False

    def _record_full_stats(self) -> None:
        self.last_update = UpdateStats(
            "full",
            self.revision,
            self._arrays.num_vertices,
            self._arrays.num_vertices,
        )

    @staticmethod
    def _migrate_pending(
        pending: Optional[np.ndarray], row_map: np.ndarray, num_vertices: int
    ) -> Optional[np.ndarray]:
        if pending is None:
            return None
        migrated = _migrate_rows(pending, row_map, num_vertices)
        return migrated if migrated.any() else None

    def _drain(self, backward: bool) -> int:
        """Run the pending dirty-cone sweep of one direction, if any."""
        pending = self._pending_bwd if backward else self._pending_fwd
        if pending is None:
            return 0
        if not backward:
            self._delay_cache = None
        # Clear the frontier only after the sweep succeeds: if it raises
        # (e.g. a cycle surfaces while rebuilding the levels), the queued
        # dirty vertices stay pending and the next query retries them —
        # the sweep only ever *adds* flags to ``pending``, so re-running
        # it over the kept superset is safe.
        processed = self._sweep(pending, backward=backward)
        if backward:
            self._pending_bwd = None
        else:
            self._pending_fwd = None
        if processed:
            self.last_update = UpdateStats(
                "incremental",
                self.revision,
                0 if backward else processed,
                processed if backward else 0,
            )
        return processed

    def _ensure_width(self, width: int) -> None:
        if width <= self._width:
            return
        self._width = width
        self._edge_corr_w = pad_corr(self._arrays.edge_corr, width)
        for state in (self._fwd, self._bwd):
            if state is None:
                continue
            state.corr = pad_corr(state.corr, width)
            state.seed_corr = pad_corr(state.seed_corr, width)

    def _full_pass(self) -> None:
        arrays = self._arrays
        width = self._width
        num_vertices = arrays.num_vertices

        arrival = _arrival_times(arrays, self._input_arrivals)
        fwd = _PassState(num_vertices, width)
        fwd.mean = arrival.mean
        fwd.corr = pad_corr(arrival.corr, width)
        fwd.randvar = arrival.randvar
        fwd.valid = arrival.valid
        self._fwd = fwd
        self._recompute_backward_full()  # also rebuilds both seed sets
        self._pending_fwd = None
        self._pending_bwd = None
        self._delay_cache = None

    def _recompute_backward_full(self) -> None:
        graph = self._graph
        arrays = self._arrays
        width = self._width
        required = _required_times(
            arrays, {name: self._required_time for name in graph.outputs}
        )
        # Stored in fold space (negated), so incremental folds can continue
        # where the full pass left off; queries negate on materialisation.
        bwd = _PassState(arrays.num_vertices, width)
        bwd.mean = -required.mean
        bwd.corr = -pad_corr(required.corr, width)
        bwd.randvar = required.randvar
        bwd.valid = required.valid
        self._bwd = bwd
        self._build_seeds()

    def _build_seeds(self) -> None:
        fwd, bwd = self._fwd, self._bwd
        if fwd is not None:
            fwd.clear_seeds()
            _seed_arrivals(fwd.seeds, self._arrays, self._input_arrivals)
        if bwd is not None:
            bwd.clear_seeds()
            _seed_required(
                bwd.seeds,
                self._arrays,
                {name: self._required_time for name in self._graph.outputs},
            )

    # ------------------------------------------------------------------
    # Dirty-cone levelized sweeps
    # ------------------------------------------------------------------
    def _sweep(self, dirty: np.ndarray, backward: bool) -> int:
        """Repropagate the dirty cone in one direction; returns cone size.

        Walks the cone with :func:`~repro.timing.arrays._sweep_cone`,
        folding each level's dirty subset through the one-shot passes'
        per-level fold (:func:`~repro.timing.propagation._fold_level`),
        seeded from the session's boundary conditions; a dirty vertex that
        folds no edge takes its seed.  The subset inherits the level's
        descending-degree order, so the candidate order per vertex is
        bit-identical to a full pass.  Only the rows whose time moved are
        written back and dirty their dependents (early termination on
        convergence).
        """
        arrays = self._arrays
        state = self._bwd if backward else self._fwd
        values, seeds = state.values, state.seeds
        neighbor_rows = arrays.edge_sink if backward else arrays.edge_source
        work = FoldWorkspace()

        def refold(rows: np.ndarray, edge_matrix: Optional[np.ndarray]) -> np.ndarray:
            if edge_matrix is None:
                acc = tuple(seed[rows] for seed in seeds)
            else:
                acc = _fold_level(
                    rows, edge_matrix, (edge_matrix >= 0).sum(axis=0), neighbor_rows,
                    arrays.edge_mean, self._edge_corr_w, arrays.edge_randvar,
                    values, seeds, backward, work,
                )
            return _write_moved(values, rows, acc)

        return _sweep_cone(arrays, dirty, backward, refold)

    # ------------------------------------------------------------------
    # Queries (all lazily synchronise what they need)
    # ------------------------------------------------------------------
    def _ensure_forward(self) -> None:
        if not self._sync_structures():
            self._drain(backward=False)

    def _ensure_backward(self) -> None:
        if not self._sync_structures():
            self._drain(backward=True)

    def _ensure_both(self) -> None:
        if not self._sync_structures():
            self._drain(backward=False)
            self._drain(backward=True)

    def _materialise(self, state: _PassState, row: int, negate: bool = False) -> CanonicalForm:
        sign = -1.0 if negate else 1.0
        corr = state.corr[row]
        return CanonicalForm._from_owned(
            sign * float(state.mean[row]),
            sign * float(corr[0]),
            sign * corr[1:],
            math.sqrt(max(float(state.randvar[row]), 0.0)),
        )

    def arrival_at(self, vertex: str) -> Optional[CanonicalForm]:
        """Arrival time at ``vertex``; ``None`` if unreachable."""
        self._ensure_forward()
        row = self._arrays.vertex_index.get(vertex)
        if row is None or not self._fwd.valid[row]:
            return None
        return self._materialise(self._fwd, row)

    def required_at(self, vertex: str) -> Optional[CanonicalForm]:
        """Required time at ``vertex``; ``None`` if no path to an output."""
        self._ensure_backward()
        row = self._arrays.vertex_index.get(vertex)
        if row is None or not self._bwd.valid[row]:
            return None
        return self._materialise(self._bwd, row, negate=True)

    def slack_at(self, vertex: str) -> Optional[CanonicalForm]:
        """Statistical slack (required minus arrival) at ``vertex``."""
        self._ensure_both()
        row = self._arrays.vertex_index.get(vertex)
        if row is None or not (self._fwd.valid[row] and self._bwd.valid[row]):
            return None
        required = self._materialise(self._bwd, row, negate=True)
        return required.subtract(self._materialise(self._fwd, row))

    def arrival_times(self) -> Dict[str, CanonicalForm]:
        """All reachable arrival times as a vertex-to-form dictionary."""
        self._ensure_forward()
        fwd = self._fwd
        return {
            name: self._materialise(fwd, row)
            for name, row in self._arrays.vertex_index.items()
            if fwd.valid[row]
        }

    def required_times(self) -> Dict[str, CanonicalForm]:
        """All defined required times as a vertex-to-form dictionary."""
        self._ensure_backward()
        bwd = self._bwd
        return {
            name: self._materialise(bwd, row, negate=True)
            for name, row in self._arrays.vertex_index.items()
            if bwd.valid[row]
        }

    def slacks(self) -> Dict[str, CanonicalForm]:
        """Slack at every vertex reachable in both directions."""
        self._ensure_both()
        fwd, bwd = self._fwd, self._bwd
        result: Dict[str, CanonicalForm] = {}
        for name, row in self._arrays.vertex_index.items():
            if fwd.valid[row] and bwd.valid[row]:
                required = self._materialise(bwd, row, negate=True)
                result[name] = required.subtract(self._materialise(fwd, row))
        return result

    def circuit_delay(self) -> CanonicalForm:
        """Balanced tree-reduction Clark maximum over the output arrivals."""
        self._ensure_forward()
        if self._delay_cache is not None and self._delay_cache[0] == self.revision:
            return self._delay_cache[1]
        fwd = self._fwd
        rows = [int(row) for row in self._arrays.output_rows if fwd.valid[row]]
        if not rows:
            raise TimingGraphError(
                "no output of %r is reachable from any input" % self._graph.name
            )
        delay = (
            CanonicalBatch.from_mean_corr_randvar(fwd.mean, fwd.corr, fwd.randvar)
            .gather(rows)
            .max_over()
        )
        self._delay_cache = (self.revision, delay)
        return delay

    def criticalities(self) -> Dict[int, float]:
        """Per-edge criticality under the session constraint.

        For each edge the tightness probability that its worst path —
        arrival at the source plus the edge delay — meets or exceeds the
        required time at its sink, evaluated in one vectorized pass over
        the edge arrays.  Edges not on any input-to-output path get 0.
        """
        self._ensure_both()
        arrays = self._arrays
        fwd, bwd = self._fwd, self._bwd
        src = arrays.edge_source
        snk = arrays.edge_sink
        de_mean = fwd.mean[src] + arrays.edge_mean
        de_corr = fwd.corr[src] + self._edge_corr_w
        de_randvar = fwd.randvar[src] + arrays.edge_randvar
        req_mean = -bwd.mean[snk]
        req_corr = -bwd.corr[snk]
        req_randvar = bwd.randvar[snk]
        criticality = tightness_arrays(
            de_mean, de_corr, de_randvar, req_mean, req_corr, req_randvar
        )
        usable = fwd.valid[src] & bwd.valid[snk]
        criticality = np.where(usable, criticality, 0.0)
        return {
            edge_id: float(criticality[row])
            for edge_id, row in arrays.edge_rows.items()
        }

    def __repr__(self) -> str:
        return "IncrementalTimer(%r, revision=%d, synced=%s)" % (
            self._graph.name,
            self._graph.revision,
            self._fwd is not None and self.revision == self._graph.revision,
        )
