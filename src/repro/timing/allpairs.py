"""Vectorized all-pairs input/output timing analysis of a module.

Timing-model extraction (Section IV) needs, for every edge ``e`` and every
input/output pair ``(i, j)``:

* the arrival time at the source of ``e`` *exclusively from input* ``i``;
* the maximum delay from the sink of ``e`` *to output* ``j``;
* the maximum input-to-output delay ``M_ij``.

Computing these with per-pair object-level propagation would require
``|I| + |O|`` full graph traversals with Python-level Clark operations.
Instead this engine keeps, per vertex, arrays indexed by the input (or
output) dimension and folds a whole topological level at a time, performing
every Clark maximum simultaneously for all of the level's vertices and all
inputs (outputs) with numpy, following Sapatnekar's all-pairs propagation
(ISCAS 1996) lifted to the statistical domain.

Canonical forms are stored column-wise in the shared structure-of-arrays
layout of :mod:`repro.core.batch`: component 0 of the ``corr`` arrays is the
global coefficient, components ``1..K`` are the local PCA coefficients, and
the private random part is tracked as a variance.  The graph's view
(:meth:`~repro.timing.arrays.GraphArrays.of`), the levelized fold and the
batched Clark kernels are the same ones the levelized SSTA propagation
uses.

Two entry points share the tensors:

* :class:`AllPairsTiming` — the one-shot from-scratch analysis;
* :class:`AllPairsSession` — an incremental session keyed to the graph's
  revisioned change journal that refreshes the tensors by repropagating
  only the dirty cone of each edit burst, serving threshold sweeps and
  repeated model extraction at what-if speed.  Its cone walk is
  :func:`~repro.timing.arrays._sweep_cone`, the one walker of the three
  incremental sessions, and its write-back the incremental timer's.

Memory budget
-------------
:meth:`AllPairsTiming.analyze` holds the ``(V, O)`` to-output tensors and
the ``(I, O)`` delay matrix, never the ``(V, I)`` arrival tensors:

* the backward sweep folds every output at once into the to-output
  tensors while they fit the float budget of :func:`allpairs_budget_floats`
  (env ``REPRO_ALLPAIRS_BUDGET_FLOATS``, the host's memory cap) — the
  ``"streamed"`` engine; above it the analysis holds the matrix only — the
  ``"blocked"`` engine, which keeps 10^5-10^6-edge designs inside a fixed
  memory budget and has no edge criticality;
* the forward sweep folds the inputs in blocks of ``B`` columns
  (:meth:`AllPairsTiming._input_blocks`, at most 2^22 floats of
  ``(V, B)`` state a block), writes each block's rows of ``M`` and drops
  the block.  It runs once: when the matrix is first read, or driven by
  the edge criticality
  (:func:`repro.model.criticality.compute_edge_criticalities`), which
  scores every edge against each block while it is live.

An :class:`AllPairsSession` holds every tensor — the ``"dense"`` engine —
because its dirty-cone refresh patches them in place; its forward blocks
are column views of its arrival tensors.  Every layout folds each column
through the same kernels in the same candidate order, so tensors and
matrices are bit-identical at every block width (asserted by the parity
tests up to generated 10^5-edge designs).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.batch import FoldWorkspace
from repro.core.canonical import CanonicalForm
from repro.errors import TimingGraphError
from repro.timing.arrays import (
    GraphArrays,
    _merge_dirty,
    _migrate_rows,
    _require_current,
    _sweep_cone,
)
from repro.timing.graph import TimingGraph
from repro.timing.propagation import _fold_levels, _fold_rounds, _write_moved

__all__ = [
    "ALLPAIRS_BUDGET_FLOATS",
    "AllPairsSession",
    "AllPairsTiming",
    "AllPairsUpdate",
    "allpairs_budget_floats",
    "to_output_floats",
]

#: Default budget (float64 elements) for the ``(V, O)`` to-output tensors
#: of a one-shot analysis: 2^27 floats = 1 GiB.  Above it the analysis
#: holds the delay matrix only.
ALLPAIRS_BUDGET_FLOATS = 1 << 27

ALLPAIRS_BUDGET_ENV = "REPRO_ALLPAIRS_BUDGET_FLOATS"

_SUFFIXES = ("mean", "corr", "randvar", "valid")

#: One direction's state as ``(mean, corr, randvar, valid)``.
_State = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def allpairs_budget_floats() -> int:
    """The active to-output tensor budget (float64 elements).

    Reads ``REPRO_ALLPAIRS_BUDGET_FLOATS`` on every call so tests and batch
    jobs can cap the tensors without touching code; raises a clear
    ``ValueError`` on a non-integer or non-positive override.
    """
    raw = os.environ.get(ALLPAIRS_BUDGET_ENV)
    if raw is None:
        return ALLPAIRS_BUDGET_FLOATS
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError(
            "%s must be an integer, got %r" % (ALLPAIRS_BUDGET_ENV, raw)
        ) from None
    if budget <= 0:
        raise ValueError(
            "%s must be positive, got %d" % (ALLPAIRS_BUDGET_ENV, budget)
        )
    return budget


def to_output_floats(num_vertices: int, num_outputs: int, num_corr: int) -> int:
    """Float64 count of the ``(V, O)`` to-output tensors.

    Mean, randvar and the ``num_corr``-wide coefficient tensor (the boolean
    mask is not counted); the figure :meth:`AllPairsTiming.analyze`
    compares against the budget.
    """
    return num_vertices * num_outputs * (num_corr + 2)


def _input_block_width(num_vertices: int, num_inputs: int, num_corr: int) -> int:
    """Inputs per block of the forward sweep.

    A block's folded state is ``V x B x (K + 2)`` floats, and one block is
    live at a time.  ``B`` is the widest width that keeps it within 1/32
    of the default budget, 2^22 floats (32 MiB), spread evenly over the
    blocks that width needs; a module whose whole arrival state fits
    stays one block, the dense shapes.
    """
    per_column = max(1, num_vertices * (num_corr + 2))
    widest = max(1, (ALLPAIRS_BUDGET_FLOATS // 32) // per_column)
    count = -(-num_inputs // widest)
    return max(1, -(-num_inputs // max(1, count)))


def _tensor_field(name: str) -> property:
    """A tensor attribute of :class:`AllPairsTiming`, held as ``_<name>``.

    A one-shot analysis folds two groups on their first read: the delay
    matrix through the streamed forward sweep, and the arrival tensors of
    a ``"streamed"`` analysis in full, at their ``(V, I)`` cost (no
    library consumer reads them).
    """
    key = "_" + name
    group = name.rsplit("_", 1)[0]

    def read(self):
        if group == "matrix" and self._matrix_pending:
            self._sweep_inputs()
        elif group == "arrival" and self.engine == "streamed" and getattr(self, key) is None:
            _require_current(self.arrays.graph, self.arrays, "analysis")
            self._fold_dense(False, FoldWorkspace())
        return getattr(self, key)

    def write(self, value):
        setattr(self, key, value)

    return property(read, write)


# ----------------------------------------------------------------------
# All-pairs analysis
# ----------------------------------------------------------------------
class AllPairsTiming:
    """Per-input arrival times, per-output path delays and the delay matrix.

    Build with :meth:`analyze`; afterwards the object exposes, for a module
    with ``I`` inputs, ``O`` outputs, ``V`` vertices and ``K`` local
    components:

    * ``arrival_mean/corr/randvar/valid`` — shape ``(V, I, ...)``: arrival
      time at each vertex exclusively from each input;
    * ``to_output_mean/corr/randvar/valid`` — shape ``(V, O, ...)``: maximum
      delay from each vertex to each output;
    * ``matrix_mean/corr/randvar/valid`` — shape ``(I, O, ...)``: the
      input/output delay matrix ``M`` of Section III.

    ``engine``, the one layout flag, says which of them are held:

    * ``"dense"`` — all three (sessions, whose refresh patches them);
    * ``"streamed"`` — what :meth:`analyze` builds: the to-output tensors
      and the matrix, which the forward sweep (:meth:`_sweep_inputs`)
      fills on its first read.  Reading ``arrival_*`` folds the dense
      tensors then, at their full cost;
    * ``"blocked"`` — the matrix only (over the memory budget, see the
      module doc): the per-vertex tensors are ``None``.

    The forward sweep of a one-shot analysis reads its graph as it was at
    :meth:`analyze`: read the matrix before editing the graph, or analyse
    again (a stale sweep raises :class:`~repro.errors.TimingGraphError`).
    """

    arrival_mean = _tensor_field("arrival_mean")
    arrival_corr = _tensor_field("arrival_corr")
    arrival_randvar = _tensor_field("arrival_randvar")
    arrival_valid = _tensor_field("arrival_valid")
    to_output_mean = _tensor_field("to_output_mean")
    to_output_corr = _tensor_field("to_output_corr")
    to_output_randvar = _tensor_field("to_output_randvar")
    to_output_valid = _tensor_field("to_output_valid")
    matrix_mean = _tensor_field("matrix_mean")
    matrix_corr = _tensor_field("matrix_corr")
    matrix_randvar = _tensor_field("matrix_randvar")
    matrix_valid = _tensor_field("matrix_valid")

    #: True while the forward sweep of a one-shot analysis has yet to fill
    #: the delay matrix.
    _matrix_pending = False

    def __init__(self, arrays: GraphArrays, engine: str = "dense") -> None:
        self.arrays = arrays
        graph = arrays.graph
        self.inputs: Tuple[str, ...] = graph.inputs
        self.outputs: Tuple[str, ...] = graph.outputs
        if not self.inputs or not self.outputs:
            raise TimingGraphError(
                "all-pairs analysis needs designated inputs and outputs"
            )
        if engine not in ("dense", "streamed", "blocked"):
            raise ValueError("unknown all-pairs engine %r" % (engine,))
        self.engine = engine
        num_vertices = arrays.num_vertices
        none = (None,) * len(_SUFFIXES)
        self._set("arrival", self._zeros(num_vertices, self.num_inputs)
                  if engine == "dense" else none)
        self._set("to_output", self._zeros(num_vertices, self.num_outputs)
                  if engine != "blocked" else none)
        self._set("matrix", self._zeros(self.num_inputs, self.num_outputs))

    def _zeros(self, rows: int, columns: int) -> _State:
        num_corr = self.arrays.num_corr
        return (
            np.zeros((rows, columns), dtype=float),
            np.zeros((rows, columns, num_corr), dtype=float),
            np.zeros((rows, columns), dtype=float),
            np.zeros((rows, columns), dtype=bool),
        )

    def _set(self, group: str, tensors) -> None:
        for suffix, tensor in zip(_SUFFIXES, tensors):
            setattr(self, "_%s_%s" % (group, suffix), tensor)

    def _held(self, group: str) -> Tuple[Optional[np.ndarray], ...]:
        """The tensors of ``group`` as held, folding nothing."""
        return tuple(getattr(self, "_%s_%s" % (group, suffix)) for suffix in _SUFFIXES)

    # ------------------------------------------------------------------
    @classmethod
    def analyze(cls, graph: TimingGraph) -> "AllPairsTiming":
        """Run the backward all-pairs propagation on ``graph``.

        Streamed while the to-output tensors fit
        :func:`allpairs_budget_floats`, blocked (the delay matrix only)
        above it; the forward sweep runs on the first read of the matrix
        or driven by the edge criticality.  See the module doc.
        """
        arrays = GraphArrays.of(graph)
        footprint = to_output_floats(
            arrays.num_vertices, len(graph.outputs), arrays.num_corr
        )
        engine = "streamed" if footprint <= allpairs_budget_floats() else "blocked"
        analysis = cls(arrays, engine)
        if engine == "streamed":
            analysis._fold_dense(True, FoldWorkspace())
        analysis._matrix_pending = True
        return analysis

    # ------------------------------------------------------------------
    # Levelized column sweeps
    # ------------------------------------------------------------------
    def _seed_and_fold(
        self,
        positions: range,
        backward: bool,
        mean: np.ndarray,
        corr: np.ndarray,
        randvar: np.ndarray,
        valid: np.ndarray,
        work: FoldWorkspace,
    ) -> None:
        """Fold the state of ``B = len(positions)`` columns level by level.

        ``mean``/``corr``/``randvar``/``valid`` have shape ``(V, B, ...)``
        and are overwritten: column ``b`` becomes the arrival-from-input (or
        delay-to-output) state of input (output) position ``positions[b]``.
        Each column is seeded with zeros, valid only at its own vertex, and
        every vertex folds its seed first and then its fanin (fanout)
        candidates in graph order — in both directions, the fold the
        session's dirty-cone sweep repeats, so session and from-scratch
        tensors are bit-identical.
        """
        arrays = self.arrays
        index = arrays.vertex_index
        names = self.outputs if backward else self.inputs
        mean.fill(0.0)
        corr.fill(0.0)
        randvar.fill(0.0)
        valid.fill(False)
        for column, position in enumerate(positions):
            valid[index[names[position]], column] = True

        if backward:
            levels = arrays.backward_levels()
            neighbor_rows = arrays.edge_sink
        else:
            levels = arrays.forward_levels()
            neighbor_rows = arrays.edge_source
        # The state is (V, B): the fold body broadcasts the edge delays
        # across the column axis (see _fold_rounds).
        _fold_levels(
            arrays, levels, neighbor_rows, arrays.edge_corr,
            mean, corr, randvar, valid, seed_first=True, work=work,
        )

    def _column_block(
        self,
        positions: range,
        backward: bool,
        work: FoldWorkspace,
    ) -> _State:
        """One levelized pass over ``B = len(positions)`` columns.

        Returns ``(mean, corr, randvar, valid)`` of shape ``(V, B, ...)``,
        folded by :meth:`_seed_and_fold` into workspace views.
        """
        arrays = self.arrays
        num_vertices = arrays.num_vertices
        width = len(positions)
        state = (
            work.view("block_mean", (num_vertices, width)),
            work.view("block_corr", (num_vertices, width, arrays.num_corr)),
            work.view("block_randvar", (num_vertices, width)),
            work.view("block_valid", (num_vertices, width), dtype=bool),
        )
        self._seed_and_fold(positions, backward, *state, work)
        return state

    def _fold_dense(self, backward: bool, work: FoldWorkspace) -> None:
        """Fold one direction's dense tensors as one block of every column.

        Allocates them when not held; the forward fold fills ``M`` too.
        """
        group = "to_output" if backward else "arrival"
        positions = range(self.num_outputs if backward else self.num_inputs)
        if getattr(self, "_%s_mean" % group) is None:
            self._set(group, self._zeros(self.arrays.num_vertices, len(positions)))
        state = self._held(group)
        self._seed_and_fold(positions, backward, *state, work)
        if not backward:
            self._store_matrix_rows(positions, *state)
            self._matrix_pending = False

    def _input_blocks(self) -> List[range]:
        """The input positions of each forward block, in input order."""
        count = self.num_inputs
        width = _input_block_width(self.arrays.num_vertices, count, self.arrays.num_corr)
        return [
            range(start, min(start + width, count)) for start in range(0, count, width)
        ]

    def _sweep_inputs(
        self, visit: Optional[Callable[[range, _State, _State], None]] = None
    ) -> None:
        """Run the forward sweep over every input block, in input order.

        Calls ``visit(positions, arrival, matrix)`` with the ``(V, B, ...)``
        arrival state of each block's inputs and their ``(B, O, ...)`` rows
        of ``M``, each as ``(mean, corr, randvar, valid)``.  Held arrival
        tensors (sessions) give column views.  Otherwise each block is
        folded into one reused workspace, so one block is live at a time
        (the next overwrites it), and writes its rows of ``M`` while the
        matrix is pending.  The matrix is filled once every block ran.
        """
        held = self._held("arrival")
        if held[0] is None:
            _require_current(self.arrays.graph, self.arrays, "analysis")
        matrix = self._held("matrix")
        work = FoldWorkspace()
        for positions in self._input_blocks():
            columns = slice(positions.start, positions.stop)
            if held[0] is not None:
                arrival = tuple(tensor[:, columns] for tensor in held)
            else:
                arrival = self._column_block(positions, False, work)
                if self._matrix_pending:
                    self._store_matrix_rows(positions, *arrival)
            if visit is not None:
                visit(positions, arrival, tuple(tensor[columns] for tensor in matrix))
        self._matrix_pending = False

    def _store_matrix_rows(
        self,
        positions: range,
        mean: np.ndarray,
        corr: np.ndarray,
        randvar: np.ndarray,
        valid: np.ndarray,
    ) -> None:
        """Copy the output rows of an arrival block into matrix rows."""
        output_rows = self.arrays.output_rows
        rows = slice(positions.start, positions.stop)
        self._matrix_mean[rows] = mean[output_rows].T
        self._matrix_corr[rows] = corr[output_rows].transpose(1, 0, 2)
        self._matrix_randvar[rows] = randvar[output_rows].T
        self._matrix_valid[rows] = valid[output_rows].T

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def num_inputs(self) -> int:
        """Number of module inputs."""
        return len(self.inputs)

    @property
    def num_outputs(self) -> int:
        """Number of module outputs."""
        return len(self.outputs)

    def delay_form(self, input_name: str, output_name: str) -> Optional[CanonicalForm]:
        """The canonical input/output delay ``M_ij``; ``None`` if no path."""
        i = self.inputs.index(input_name)
        j = self.outputs.index(output_name)
        if not self.matrix_valid[i, j]:
            return None
        corr = self.matrix_corr[i, j]
        return CanonicalForm(
            self.matrix_mean[i, j],
            corr[0],
            corr[1:],
            float(np.sqrt(self.matrix_randvar[i, j])),
        )

    def nbytes_report(self) -> Dict[str, int]:
        """Byte accounting of the analysis: per tensor group plus total.

        Mirrors :meth:`repro.parallel.shm.SharedArraysHandle.nbytes_report`
        and counts the tensors as held, folding nothing: ``arrival`` is 0
        unless the engine is ``"dense"`` (or ``arrival_*`` was read), and
        ``to_output`` is 0 for a blocked analysis — those zeros *are* the
        streamed and blocked engines' memory win; ``graph_arrays`` is the
        shared edge/schedule working set underneath.
        """
        report = {"graph_arrays": int(self.arrays.nbytes_report()["total"])}
        for group in ("arrival", "to_output", "matrix"):
            report[group] = sum(
                int(tensor.nbytes) for tensor in self._held(group) if tensor is not None
            )
        report["total"] = sum(report.values())
        return report

    def matrix_std(self) -> np.ndarray:
        """Standard deviation of every ``M_ij`` (invalid pairs are NaN)."""
        variance = (
            np.einsum("ijk,ijk->ij", self.matrix_corr, self.matrix_corr)
            + self.matrix_randvar
        )
        std = np.sqrt(variance)
        return np.where(self.matrix_valid, std, np.nan)

    def matrix_means(self) -> np.ndarray:
        """Mean of every ``M_ij`` (invalid pairs are NaN)."""
        return np.where(self.matrix_valid, self.matrix_mean, np.nan)


# ----------------------------------------------------------------------
# Incremental all-pairs sessions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AllPairsUpdate:
    """What one :meth:`AllPairsSession.refresh` call actually did.

    ``mode`` is ``"noop"`` (empty journal), ``"incremental"`` (dirty-cone
    repropagation of the tensors) or ``"full"`` (first pass, journal
    overflow, or an input/output designation change, which moves the tensor
    dimensions themselves).  ``serial`` counts the session's non-noop
    refreshes, so a consumer caching state derived from the tensors (e.g.
    the criticality map of :class:`repro.model.extraction.ExtractionSession`)
    can tell whether the tensors moved since it last synced, whoever
    refreshed them.  ``forward_recomputed`` / ``backward_recomputed`` count
    the vertices each direction's sweep refolded (its dirty cone).
    """

    mode: str
    revision: int
    serial: int
    forward_recomputed: int
    backward_recomputed: int


class AllPairsSession:
    """An incrementally maintained all-pairs analysis of an evolving module.

    Where :meth:`AllPairsTiming.analyze` rebuilds the per-input arrival and
    per-output delay tensors from scratch on every call, a session attaches
    to one graph, runs the full propagation once, and afterwards keeps the
    tensors alive as a cache keyed to the graph's revision: every
    :meth:`refresh` replays the coalesced change journal through the
    session's private :class:`~repro.timing.arrays.GraphArrays` view
    (delay-only retimes are patched in place, structural windows migrate
    the tensors through the refresh row map), seeds a dirty frontier from
    the edited edges and recomputes **only the affected cone** — level by
    level, folding the dirty subset of each level across all inputs (or
    outputs) at once with the shared fold and exactly the candidate order
    of the from-scratch engine, so the refreshed tensors are bit-identical
    to a fresh :meth:`AllPairsTiming.analyze` (asserted by the randomized
    edit-sequence tests).

    Only an input/output designation change or a journal overflow forces a
    full recompute: the tensor dimensions are keyed to the I/O sets, which
    therefore stay frozen between full passes.
    """

    def __init__(self, graph: TimingGraph) -> None:
        if not graph.inputs or not graph.outputs:
            raise TimingGraphError(
                "all-pairs analysis needs designated inputs and outputs"
            )
        self._graph = graph
        graph.enable_journal()  # sessions sync incrementally from here on
        self._arrays = GraphArrays.from_graph(graph)
        self._analysis: Optional[AllPairsTiming] = None
        self._serial = 0
        # Dirty vertex frontiers (V,), kept across a failed sweep (e.g. a
        # cycle surfacing mid-refresh) so the next refresh retries the
        # queued work instead of losing it.
        self._dirty_fwd: Optional[np.ndarray] = None
        self._dirty_bwd: Optional[np.ndarray] = None
        self.last_update: Optional[AllPairsUpdate] = None
        # Why a warm start fell back to a cold rebuild (None for cold
        # sessions and for genuinely warm loads); set by repro.store.
        self.store_fallback_reason: Optional[str] = None
        self.refresh()

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
        """Graph revision the session tensors currently reflect."""
        return self._arrays.revision

    @property
    def serial(self) -> int:
        """Number of non-noop refreshes the session has performed."""
        return self._serial

    @property
    def analysis(self) -> AllPairsTiming:
        """The maintained :class:`AllPairsTiming` view, synchronised first.

        The returned object is replaced (not patched) by a full refresh, so
        consumers should re-read this property after editing the graph
        rather than holding on to a stale reference.
        """
        self.refresh()
        return self._analysis

    @property
    def state(self) -> AllPairsTiming:
        """The tensors as of the last :meth:`refresh` (no synchronisation).

        For consumers that just called :meth:`refresh` themselves and need
        the matching state without risking the consumption of a newer
        journal window (e.g. the extraction session, whose criticality map
        is keyed to the serial of that refresh).
        """
        return self._analysis

    def matrix_means(self) -> np.ndarray:
        """Mean of every ``M_ij`` (synchronised; invalid pairs are NaN)."""
        return self.analysis.matrix_means()

    def matrix_std(self) -> np.ndarray:
        """Std of every ``M_ij`` (synchronised; invalid pairs are NaN)."""
        return self.analysis.matrix_std()

    def delay_form(self, input_name: str, output_name: str) -> Optional[CanonicalForm]:
        """The canonical input/output delay ``M_ij`` (synchronised)."""
        return self.analysis.delay_form(input_name, output_name)

    def nbytes_report(self) -> Dict[str, int]:
        """Byte accounting of the session: tensors, dirty state and total.

        ``analysis`` aggregates the maintained tensors (including the
        shared :class:`GraphArrays` working set); ``dirty_state`` is the
        session's own dirty-frontier bookkeeping.  No refresh is
        performed — the report describes the state as currently held.
        """
        report = {
            "analysis": (
                int(self._analysis.nbytes_report()["total"])
                if self._analysis is not None
                else int(self._arrays.nbytes_report()["total"])
            ),
            "dirty_state": sum(
                int(mask.nbytes)
                for mask in (self._dirty_fwd, self._dirty_bwd)
                if mask is not None
            ),
        }
        report["total"] = sum(report.values())
        return report

    # ------------------------------------------------------------------
    # Columnar snapshots (the repro.store persistence layer)
    # ------------------------------------------------------------------
    _TENSOR_FIELDS = (
        "arrival_mean", "arrival_corr", "arrival_randvar", "arrival_valid",
        "to_output_mean", "to_output_corr", "to_output_randvar",
        "to_output_valid",
        "matrix_mean", "matrix_corr", "matrix_randvar", "matrix_valid",
    )

    def snapshot_state(self) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
        """The synchronised all-pairs tensors as store columns plus meta.

        Runs :meth:`refresh` first, so the snapshot is keyed exactly to
        the graph's current revision with empty dirty state.
        """
        self.refresh()
        analysis = self._analysis
        columns = {
            "ap." + name: getattr(analysis, name) for name in self._TENSOR_FIELDS
        }
        meta = {
            "serial": int(self._serial),
            "inputs": list(analysis.inputs),
            "outputs": list(analysis.outputs),
            "engine": analysis.engine,
        }
        return columns, meta

    @classmethod
    def from_snapshot(
        cls,
        graph: TimingGraph,
        arrays: GraphArrays,
        columns: Mapping[str, np.ndarray],
        meta: Mapping[str, Any],
    ) -> "AllPairsSession":
        """Attach a warm session from stored columns — no propagation run.

        ``arrays`` must reflect the snapshot's revision; a graph that has
        moved ahead replays the journal window through the ordinary
        dirty-cone ``refresh()`` at the first query.
        """
        self = cls.__new__(cls)
        self._graph = graph
        graph.enable_journal()
        self._arrays = arrays
        analysis = AllPairsTiming.__new__(AllPairsTiming)
        analysis.arrays = arrays
        analysis.inputs = tuple(meta["inputs"])
        analysis.outputs = tuple(meta["outputs"])
        analysis.engine = str(meta.get("engine", "dense"))
        for name in cls._TENSOR_FIELDS:
            # The incremental sweeps patch the tensors in place, so they
            # must be private: the store's loaders hand over copy-on-write
            # views, which never write through to the entry file.
            setattr(analysis, name, np.asarray(columns["ap." + name]))
        self._analysis = analysis
        self._serial = int(meta["serial"])
        self._dirty_fwd = None
        self._dirty_bwd = None
        self.last_update = None
        self.store_fallback_reason = None
        self._index_positions()
        return self

    def save(self, path):
        """Persist this session as one columnar store entry; returns the path.

        Convenience wrapper over :func:`repro.store.save_allpairs_session`.
        """
        from repro.store import save_allpairs_session

        return save_allpairs_session(self, path)

    @classmethod
    def load(cls, path, graph=None, on_overflow="error") -> "AllPairsSession":
        """Warm-start a session from a store entry.

        Convenience wrapper over :func:`repro.store.load_allpairs_session`;
        see there for the ``graph``/``on_overflow`` semantics.
        """
        from repro.store import load_allpairs_session

        return load_allpairs_session(path, graph=graph, on_overflow=on_overflow)

    # ------------------------------------------------------------------
    # The refresh engine
    # ------------------------------------------------------------------
    def refresh(self) -> AllPairsUpdate:
        """Synchronise the tensors with the graph's current revision.

        Returns an :class:`AllPairsUpdate` describing what was done; raises
        :class:`~repro.errors.TimingGraphError` when the session is stale
        (attached to a graph behind its sync revision) or when an edit
        introduced a cycle.
        """
        if self._analysis is None:
            self._arrays.refresh()
            return self._full_pass()

        refresh = self._arrays.refresh()
        delta = refresh.delta
        if refresh.kind == "rebuild" or (delta is not None and delta.io_changed):
            return self._full_pass()

        if refresh.kind == "structure" and refresh.row_map is not None:
            self._migrate(refresh.row_map)

        if delta is not None and not delta.empty:
            fwd_dirty, bwd_dirty = self._arrays.dirty_frontiers(delta)
            self._dirty_fwd = _merge_dirty(self._dirty_fwd, fwd_dirty)
            self._dirty_bwd = _merge_dirty(self._dirty_bwd, bwd_dirty)

        if self._dirty_fwd is None and self._dirty_bwd is None:
            update = AllPairsUpdate("noop", self.revision, self._serial, 0, 0)
            self.last_update = update
            return update

        forward = self._sweep(backward=False)
        backward = self._sweep(backward=True)
        self._serial += 1
        update = AllPairsUpdate(
            "incremental", self.revision, self._serial, forward, backward
        )
        self.last_update = update
        return update

    def _full_pass(self) -> AllPairsUpdate:
        graph = self._graph
        if not graph.inputs or not graph.outputs:
            raise TimingGraphError(
                "all-pairs analysis needs designated inputs and outputs"
            )
        analysis = AllPairsTiming(self._arrays)
        work = FoldWorkspace()
        analysis._fold_dense(False, work)
        analysis._fold_dense(True, work)
        self._analysis = analysis
        self._index_positions()
        self._dirty_fwd = None
        self._dirty_bwd = None
        self._serial += 1
        num_vertices = self._arrays.num_vertices
        update = AllPairsUpdate(
            "full", self.revision, self._serial, num_vertices, num_vertices
        )
        self.last_update = update
        return update

    def _migrate(self, row_map: np.ndarray) -> None:
        """Re-index the tensors and bookkeeping through a vertex row map."""
        analysis = self._analysis
        num_vertices = self._arrays.num_vertices
        for name in self._TENSOR_FIELDS:
            if not name.startswith("matrix_"):  # the (I, O) matrix has no vertex rows
                tensor = getattr(analysis, name)
                setattr(analysis, name, _migrate_rows(tensor, row_map, num_vertices))
        if self._dirty_fwd is not None:
            self._dirty_fwd = _migrate_rows(self._dirty_fwd, row_map, num_vertices)
        if self._dirty_bwd is not None:
            self._dirty_bwd = _migrate_rows(self._dirty_bwd, row_map, num_vertices)
        self._index_positions()

    def _index_positions(self) -> None:
        """Map the rows of the tensors' inputs/outputs to their positions."""
        index = self._arrays.vertex_index
        analysis = self._analysis
        self._input_position = {
            index[name]: position
            for position, name in enumerate(analysis.inputs)
            if name in index
        }
        self._output_position = {
            index[name]: position
            for position, name in enumerate(analysis.outputs)
            if name in index
        }

    # ------------------------------------------------------------------
    # Dirty-cone sweeps (levelized, all inputs/outputs at once)
    # ------------------------------------------------------------------
    def _sweep(self, backward: bool) -> int:
        """Repropagate one direction's dirty cone; returns its vertex count.

        Walks the cone with :func:`~repro.timing.arrays._sweep_cone`, as
        the incremental timer does, folding each level's dirty subset
        across all inputs (outputs) through the shared fold round body.
        Every vertex folds its seed row first and then its fanin (fanout)
        candidates in graph order, exactly the fold of the from-scratch
        engine; a dirty vertex with no fold edges takes its seed row.  Only
        rows with a moved tensor entry are written back and dirty their
        dependents (early termination on convergence).  The forward sweep
        also copies each moved output row into its matrix column, so the
        delay matrix is current when it returns.
        """
        dirty = self._dirty_bwd if backward else self._dirty_fwd
        if dirty is None:
            return 0
        analysis = self._analysis
        arrays = self._arrays
        prefix = "to_output" if backward else "arrival"
        state = tuple(
            getattr(analysis, "%s_%s" % (prefix, name))
            for name in ("mean", "corr", "randvar", "valid")
        )
        neighbor_rows = arrays.edge_sink if backward else arrays.edge_source
        width = state[0].shape[1]
        seed_column = np.full(arrays.num_vertices, -1, dtype=np.int64)
        for row, position in (
            self._output_position if backward else self._input_position
        ).items():
            seed_column[row] = position
        # Forward only: the matrix column of each output vertex's row.
        matrix_column = np.full(arrays.num_vertices, -1, dtype=np.int64)
        if not backward:
            for row, position in self._output_position.items():
                matrix_column[row] = position
        work = FoldWorkspace()

        def refold(rows: np.ndarray, edge_matrix: Optional[np.ndarray]) -> np.ndarray:
            # Seed row: zeros everywhere, valid only at the vertex's own
            # input (output) position, as in the from-scratch engine.
            num = rows.shape[0]
            acc = (
                work.view("acc_mean", (num, width)),
                work.view("acc_corr", (num, width, arrays.num_corr)),
                work.view("acc_randvar", (num, width)),
                work.view("acc_valid", (num, width), dtype=bool),
            )
            for array in acc:
                array.fill(0)
            columns = seed_column[rows]
            seeded = np.nonzero(columns >= 0)[0]
            acc[3][seeded, columns[seeded]] = True
            if edge_matrix is not None:
                _fold_rounds(
                    edge_matrix, (edge_matrix >= 0).sum(axis=0), neighbor_rows,
                    arrays.edge_mean, arrays.edge_corr, arrays.edge_randvar,
                    *state, *acc, init_round0=False, work=work,
                )
            moved = _write_moved(state, rows, acc)
            columns = matrix_column[moved]
            outputs = columns >= 0
            if outputs.any():
                self._write_matrix_columns(moved[outputs], columns[outputs])
            return moved

        processed = _sweep_cone(arrays, dirty, backward, refold)
        if backward:
            self._dirty_bwd = None
        else:
            self._dirty_fwd = None
        return processed

    def _write_matrix_columns(self, rows: np.ndarray, columns: np.ndarray) -> None:
        """Copy the arrival rows of output vertices into their matrix columns."""
        analysis = self._analysis
        analysis.matrix_mean[:, columns] = analysis.arrival_mean[rows].T
        analysis.matrix_corr[:, columns] = analysis.arrival_corr[rows].transpose(1, 0, 2)
        analysis.matrix_randvar[:, columns] = analysis.arrival_randvar[rows].T
        analysis.matrix_valid[:, columns] = analysis.arrival_valid[rows].T

    def __repr__(self) -> str:
        return "AllPairsSession(%r, revision=%d, serial=%d)" % (
            self._graph.name,
            self.revision,
            self._serial,
        )
