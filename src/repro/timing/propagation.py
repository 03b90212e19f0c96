"""Block-based SSTA propagation: one levelized fold for every pass.

These routines implement the classic single-traversal SSTA of Visweswariah
et al. on a :class:`~repro.timing.graph.TimingGraph`: arrival times are
propagated from the designated inputs to every vertex with the statistical
``sum`` and ``max`` operators, and required times backwards with ``sum`` and
``min``.  They are used both for module-level sanity analysis and for the
design-level hierarchical propagation (Section V, step 4).

Every pass keeps its per-vertex times in the structure-of-arrays layout of
:class:`~repro.core.batch.CanonicalBatch` on the graph's shared
:meth:`~repro.timing.arrays.GraphArrays.of` view and folds the graph one
topological level at a time: every level runs one batched Clark merge
per fold round (:func:`_fold_rounds`), the round body the all-pairs folds
share.  The :class:`~repro.timing.incremental.IncrementalTimer` sweeps its
dirty cones through the same per-level fold (:func:`_fold_level`) and
writes them back with :func:`_write_moved`, which it shares with the
all-pairs session.

Boundary conditions: a ``minus_infinity`` input arrival, the identity of
``max``, leaves that input unseeded, so vertices reachable only from such
masked inputs get no time.  Any other non-finite arrival, and any
non-finite required time, raises ``ValueError`` naming the vertex.

The dictionary functions (:func:`propagate_arrival_times`, ...) are
``as_dict()`` views of the batched ones.  The object-level per-edge loop
survives only as ``_reference_fold`` in ``tests/oracles.py``, the oracle
the tests compare the fold against (to 1e-9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.core.batch import (
    CanonicalBatch,
    FoldWorkspace,
    merge_max_with_validity_into,
    pad_corr,
)
from repro.core.canonical import CanonicalForm
from repro.errors import TimingGraphError
from repro.timing.arrays import GraphArrays
from repro.timing.graph import TimingGraph

__all__ = [
    "VertexTimes",
    "propagate_arrival_times",
    "propagate_arrival_times_batch",
    "propagate_required_times",
    "propagate_required_times_batch",
    "circuit_delay",
    "compute_slacks",
    "compute_slacks_batch",
    "longest_path_to_outputs",
    "longest_path_to_outputs_batch",
]

#: Per-vertex SoA state ``(mean, corr, randvar, valid)``.
State = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


# ----------------------------------------------------------------------
# Batched vertex-time state
# ----------------------------------------------------------------------
@dataclass
class VertexTimes:
    """Batched per-vertex canonical times plus a reachability mask.

    ``mean``/``corr``/``randvar`` hold one canonical form per graph vertex
    in the SoA layout of :mod:`repro.core.batch`; ``valid`` marks the
    vertices that actually carry a time (the others' numeric content is
    meaningless, mirroring the absent entries of :meth:`as_dict`).
    """

    arrays: GraphArrays
    mean: np.ndarray
    corr: np.ndarray
    randvar: np.ndarray
    valid: np.ndarray

    @property
    def batch(self) -> CanonicalBatch:
        """Zero-copy batch view over all vertices (valid or not)."""
        return CanonicalBatch.from_mean_corr_randvar(self.mean, self.corr, self.randvar)

    def form(self, vertex: str) -> Optional[CanonicalForm]:
        """The canonical time at ``vertex``; ``None`` if unreachable."""
        row = self.arrays.vertex_index.get(vertex)
        if row is None or not self.valid[row]:
            return None
        return self.batch.form(row)

    def as_dict(self) -> Dict[str, CanonicalForm]:
        """Materialise the valid entries as a vertex-to-form dictionary."""
        batch = self.batch
        valid = self.valid
        return {
            name: batch.form(row)
            for name, row in self.arrays.vertex_index.items()
            if valid[row]
        }


def _empty_state(arrays: GraphArrays, width: int) -> State:
    num_vertices = arrays.num_vertices
    return (
        np.zeros(num_vertices, dtype=float),
        np.zeros((num_vertices, width), dtype=float),
        np.zeros(num_vertices, dtype=float),
        np.zeros(num_vertices, dtype=bool),
    )


def _seed_form(
    state: State,
    row: int,
    vertex: str,
    form: CanonicalForm,
    what: str,
    negate: bool = False,
) -> None:
    """Write ``form`` (negated for the backward fold) into ``state[row]``."""
    if not form.is_finite:
        raise ValueError(
            "%s at %r is not finite (nominal %r)" % (what, vertex, form.nominal)
        )
    mean, corr, randvar, valid = state
    sign = -1.0 if negate else 1.0
    mean[row] = sign * form.nominal
    corr[row, :] = 0.0
    corr[row, 0] = sign * form.global_coeff
    corr[row, 1 : 1 + form.num_locals] = sign * form.local_coeffs
    randvar[row] = form.random_coeff * form.random_coeff
    valid[row] = True


def _seed_arrivals(
    state: State,
    arrays: GraphArrays,
    input_arrivals: Mapping[str, CanonicalForm],
) -> None:
    """Seed every input: a deterministic zero unless ``input_arrivals`` names it.

    A ``minus_infinity`` arrival, the identity of ``max``, leaves the input
    unseeded; any other non-finite arrival raises ``ValueError``.
    """
    index = arrays.vertex_index
    valid = state[3]
    for name in arrays.graph.inputs:
        form = input_arrivals.get(name)
        if form is None:
            valid[index[name]] = True  # deterministic zero arrival
        elif form.nominal != -math.inf:
            _seed_form(state, index[name], name, form, "input arrival")


def _seed_required(
    state: State,
    arrays: GraphArrays,
    required_at_outputs: Mapping[str, CanonicalForm],
) -> None:
    """Seed the negated required time of every output (all must be finite)."""
    index = arrays.vertex_index
    for name, form in required_at_outputs.items():
        _seed_form(state, index[name], name, form, "required time", negate=True)


# ----------------------------------------------------------------------
# The levelized fold
# ----------------------------------------------------------------------
def _fold_rounds(
    edge_matrix: np.ndarray,
    round_counts: np.ndarray,
    neighbor_rows: np.ndarray,
    edge_mean: np.ndarray,
    edge_corr: np.ndarray,
    edge_randvar: np.ndarray,
    mean: np.ndarray,
    corr: np.ndarray,
    randvar: np.ndarray,
    valid: np.ndarray,
    acc_mean: np.ndarray,
    acc_corr: np.ndarray,
    acc_randvar: np.ndarray,
    acc_valid: np.ndarray,
    init_round0: bool,
    work: Optional[FoldWorkspace] = None,
) -> None:
    """Fold each round's edge candidates into the accumulators, in place.

    Round ``r`` adds the neighbor time of every vertex's ``r``-th edge to
    that edge's delay and merges the candidate batch into the accumulator
    prefix ``[:round_counts[r]]`` with one masked Clark max — the same
    left-fold order per vertex as the reference loop.  This is the single
    shared round body of the levelized passes, the incremental dirty-cone
    sweep and the all-pairs folds: their bit-identical candidate fold order
    lives here and nowhere else.
    ``init_round0`` makes round 0 initialise the accumulators (the arrival
    fold's ``best = candidate``); otherwise round 0 merges into pre-seeded
    accumulators (the backward folds' seed-first fold).

    All temporaries come from ``work`` (one is created when omitted), so a
    fold over many levels allocates each scratch buffer once instead of per
    round.  The per-vertex state may carry an extra trailing batch axis
    (``mean (V, B)``, ``corr (V, B, W)``): edge delays broadcast across the
    blocked axis, which is how the all-pairs engine folds ``B`` input
    columns per pass through this one shared body.
    """
    if work is None:
        work = FoldWorkspace()
    blocked = mean.ndim == 2
    for round_index in range(edge_matrix.shape[1]):
        count = int(round_counts[round_index])
        if count == 0:
            break  # counts are non-increasing: later rounds are empty too
        edge_rows = edge_matrix[:count, round_index]
        neighbors = neighbor_rows[edge_rows]

        cand_mean = work.view("cand_mean", (count,) + mean.shape[1:])
        cand_corr = work.view("cand_corr", (count,) + corr.shape[1:])
        cand_randvar = work.view("cand_randvar", (count,) + randvar.shape[1:])
        cand_valid = work.view("cand_valid", (count,) + valid.shape[1:], dtype=bool)
        edge_gather = work.view("edge_gather", (count,))
        edge_corr_gather = work.view("edge_corr_gather", (count, edge_corr.shape[1]))

        np.take(mean, neighbors, axis=0, out=cand_mean)
        np.take(edge_mean, edge_rows, out=edge_gather)
        np.add(cand_mean, edge_gather[:, None] if blocked else edge_gather, out=cand_mean)
        np.take(corr, neighbors, axis=0, out=cand_corr)
        np.take(edge_corr, edge_rows, axis=0, out=edge_corr_gather)
        np.add(
            cand_corr,
            edge_corr_gather[:, None, :] if blocked else edge_corr_gather,
            out=cand_corr,
        )
        np.take(randvar, neighbors, axis=0, out=cand_randvar)
        np.take(edge_randvar, edge_rows, out=edge_gather)
        np.add(cand_randvar, edge_gather[:, None] if blocked else edge_gather, out=cand_randvar)
        np.take(valid, neighbors, axis=0, out=cand_valid)

        if round_index == 0 and init_round0:
            acc_mean[:count] = cand_mean
            acc_corr[:count] = cand_corr
            acc_randvar[:count] = cand_randvar
            acc_valid[:count] = cand_valid
            continue
        merged_mean = work.view("merged_mean", cand_mean.shape)
        merged_corr = work.view("merged_corr", cand_corr.shape)
        merged_randvar = work.view("merged_randvar", cand_randvar.shape)
        merged_valid = work.view("merged_valid", cand_valid.shape, dtype=bool)
        merge_max_with_validity_into(
            acc_mean[:count], acc_corr[:count], acc_randvar[:count],
            acc_valid[:count],
            cand_mean, cand_corr, cand_randvar, cand_valid,
            merged_mean, merged_corr, merged_randvar, merged_valid, work,
        )
        acc_mean[:count], acc_corr[:count] = merged_mean, merged_corr
        acc_randvar[:count], acc_valid[:count] = merged_randvar, merged_valid


def _fold_level(
    rows: np.ndarray,
    edge_matrix: np.ndarray,
    round_counts: np.ndarray,
    neighbor_rows: np.ndarray,
    edge_mean: np.ndarray,
    edge_corr: np.ndarray,
    edge_randvar: np.ndarray,
    state: State,
    seeds: State,
    seed_first: bool,
    work: FoldWorkspace,
) -> State:
    """Fold one level (or a dirty subset of one); the state is not written.

    ``rows`` are the level's vertex rows in descending-degree order with
    their ``edge_matrix`` rows and ``round_counts``; candidates read the
    neighbor times from ``state``.  ``seeds`` holds the boundary
    conditions: with ``seed_first`` (backward folds) a vertex's seed enters
    before its edge candidates, otherwise it is merged after them.  A
    one-shot pass passes its state as the seeds — each row's seed is read
    before that row is written.

    Returns the folded ``(mean, corr, randvar, valid)`` of ``rows`` as
    workspace views, valid until the next fold.
    """
    mean = state[0]
    shape = (rows.shape[0],) + mean.shape[1:]
    width = state[1].shape[-1]
    acc = _state_views(work, "acc", shape, width)
    if seed_first:
        for values, into in zip(seeds, acc):
            np.take(values, rows, axis=0, out=into)
    # else: round 0 covers every vertex of the level (degree >= 1), so the
    # accumulators are fully written before they are first read.
    _fold_rounds(
        edge_matrix, round_counts, neighbor_rows,
        edge_mean, edge_corr, edge_randvar,
        *state, *acc, init_round0=not seed_first, work=work,
    )
    if seed_first:
        return acc
    seed_valid = work.view("seed_valid", shape, dtype=bool)
    np.take(seeds[3], rows, axis=0, out=seed_valid)
    if not seed_valid.any():
        return acc
    # Merge a pre-seeded state (an input vertex that also has fanin) after
    # the fold.
    seed = _state_views(work, "seed", shape, width)
    for values, into in zip(seeds, seed):
        np.take(values, rows, axis=0, out=into)
    merged = _state_views(work, "merged", shape, width)
    merge_max_with_validity_into(*acc, *seed, *merged, work)
    return merged


def _state_views(
    work: FoldWorkspace, prefix: str, shape: Tuple[int, ...], width: int
) -> State:
    """Workspace views ``(mean, corr, randvar, valid)`` for ``shape`` rows."""
    return (
        work.view(prefix + "_mean", shape),
        work.view(prefix + "_corr", shape + (width,)),
        work.view(prefix + "_randvar", shape),
        work.view(prefix + "_valid", shape, dtype=bool),
    )


def _write_moved(state: State, rows: np.ndarray, acc: State) -> np.ndarray:
    """Write the refolded ``acc`` of ``rows`` where it moved; returns those rows.

    A session's exact-compare write-back: a row moved when its validity
    flipped or, valid before and after, any of its numbers differs.  With
    ``(V, B)`` state (the all-pairs tensors) a row moved when any of its
    ``B`` entries did, and the whole row is written.
    """
    mean, corr, randvar, valid = state
    acc_mean, acc_corr, acc_randvar, acc_valid = acc
    old_valid = valid[rows]
    moved = (old_valid != acc_valid) | (
        old_valid
        & acc_valid
        & (
            (mean[rows] != acc_mean)
            | (randvar[rows] != acc_randvar)
            | np.any(corr[rows] != acc_corr, axis=-1)
        )
    )
    if moved.ndim == 2:
        moved = moved.any(axis=1)
    moved_rows = rows[moved]
    if moved_rows.size:
        mean[moved_rows] = acc_mean[moved]
        corr[moved_rows] = acc_corr[moved]
        randvar[moved_rows] = acc_randvar[moved]
        valid[moved_rows] = acc_valid[moved]
    return moved_rows


def _fold_levels(
    arrays: GraphArrays,
    levels,
    neighbor_rows: np.ndarray,
    edge_corr: np.ndarray,
    mean: np.ndarray,
    corr: np.ndarray,
    randvar: np.ndarray,
    valid: np.ndarray,
    seed_first: bool,
    work: Optional[FoldWorkspace] = None,
) -> None:
    """Run the levelized Clark fold over ``levels``, updating state in place.

    Each level folds through :func:`_fold_level` with the state as its own
    seeds: a pre-seeded value (the required time at an output, an input
    arrival) enters before the edge candidates with ``seed_first``
    (backward passes) and is merged after them otherwise (arrivals).

    Accumulators and every kernel temporary live in ``work`` (created when
    omitted, pass one in to share across passes): each buffer is allocated
    once at the widest level instead of once per level.  The state may
    carry a trailing blocked axis (see :func:`_fold_rounds`).
    """
    if work is None:
        work = FoldWorkspace()
    state = (mean, corr, randvar, valid)
    for level in levels:
        rows = level.vertex_rows
        acc = _fold_level(
            rows, level.edge_matrix, level.round_counts, neighbor_rows,
            arrays.edge_mean, edge_corr, arrays.edge_randvar,
            state, state, seed_first, work,
        )
        mean[rows], corr[rows], randvar[rows], valid[rows] = acc


# ----------------------------------------------------------------------
# Arrival times
# ----------------------------------------------------------------------
def propagate_arrival_times_batch(
    graph: TimingGraph,
    input_arrivals: Optional[Mapping[str, CanonicalForm]] = None,
) -> VertexTimes:
    """Propagate arrival times from the graph inputs to every vertex.

    ``input_arrivals`` optionally supplies the arrival time at each input
    vertex (defaults to a deterministic zero; ``minus_infinity`` masks the
    input).  Vertices unreachable from any seeded input are not ``valid``.
    """
    return _arrival_times(GraphArrays.of(graph), input_arrivals)


def _arrival_times(
    arrays: GraphArrays, input_arrivals: Optional[Mapping[str, CanonicalForm]]
) -> VertexTimes:
    """The arrival pass on a given view (a session's private one, say)."""
    given = input_arrivals or {}
    input_arrivals = {
        name: given[name] for name in arrays.graph.inputs if name in given
    }
    width = max(
        arrays.num_corr,
        max((f.num_locals + 1 for f in input_arrivals.values()), default=1),
    )
    state = _empty_state(arrays, width)
    _seed_arrivals(state, arrays, input_arrivals)
    _fold_levels(
        arrays, arrays.forward_levels(), arrays.edge_source,
        pad_corr(arrays.edge_corr, width), *state, seed_first=False,
    )
    return VertexTimes(arrays, *state)


def propagate_arrival_times(
    graph: TimingGraph,
    input_arrivals: Optional[Mapping[str, CanonicalForm]] = None,
) -> Dict[str, CanonicalForm]:
    """:func:`propagate_arrival_times_batch` as a vertex-to-form dictionary.

    Vertices unreachable from any seeded input get no entry.
    """
    return propagate_arrival_times_batch(graph, input_arrivals).as_dict()


def circuit_delay(
    graph: TimingGraph,
    input_arrivals: Optional[Mapping[str, CanonicalForm]] = None,
) -> CanonicalForm:
    """Statistical maximum arrival time over the graph outputs.

    The reachable output arrivals are reduced with the balanced tree
    kernel; :class:`~repro.errors.TimingGraphError` when none is reachable.
    """
    times = propagate_arrival_times_batch(graph, input_arrivals)
    rows = [row for row in times.arrays.output_rows if times.valid[row]]
    if not rows:
        raise TimingGraphError(
            "no output of %r is reachable from any input" % graph.name
        )
    return times.batch.gather(rows).max_over()


# ----------------------------------------------------------------------
# Backward propagation
# ----------------------------------------------------------------------
def longest_path_to_outputs_batch(graph: TimingGraph) -> VertexTimes:
    """Maximum statistical delay from every vertex to any graph output.

    This is the "negative required time with the output required time set
    to zero" used by the paper's criticality computation (eq. 15); it is
    the backward analogue of :func:`propagate_arrival_times_batch`.
    """
    arrays = GraphArrays.of(graph)
    state = _empty_state(arrays, arrays.num_corr)
    valid = state[3]
    valid[arrays.output_rows] = True  # deterministic zero at every output
    _fold_levels(
        arrays, arrays.backward_levels(), arrays.edge_sink, arrays.edge_corr,
        *state, seed_first=True,
    )
    return VertexTimes(arrays, *state)


def longest_path_to_outputs(graph: TimingGraph) -> Dict[str, CanonicalForm]:
    """:func:`longest_path_to_outputs_batch` as a vertex-to-form dictionary."""
    return longest_path_to_outputs_batch(graph).as_dict()


def propagate_required_times_batch(
    graph: TimingGraph,
    required_at_outputs: Optional[Mapping[str, CanonicalForm]] = None,
    default_required: Optional[CanonicalForm] = None,
) -> VertexTimes:
    """Propagate required times backwards from the outputs.

    The required time at a vertex is the statistical *minimum* over its
    fanout edges of ``required(sink) - delay``.  ``default_required``
    (default: deterministic zero) is used for outputs without an explicit
    entry in ``required_at_outputs``.

    The ``min``/``sum`` recursion runs as a ``max`` fold on the *negated*
    state (``min(A,B) = -max(-A,-B)``): the state holds ``-required``, a
    fanout candidate ``required(sink) - delay`` becomes
    ``state(sink) + delay``, and the result is negated back at the end.
    """
    return _required_times(
        GraphArrays.of(graph), required_at_outputs, default_required
    )


def _required_times(
    arrays: GraphArrays,
    required_at_outputs: Optional[Mapping[str, CanonicalForm]] = None,
    default_required: Optional[CanonicalForm] = None,
) -> VertexTimes:
    """The required-time pass on a given view (a session's private one, say)."""
    graph = arrays.graph
    required_at_outputs = dict(required_at_outputs or {})
    if default_required is None:
        default_required = CanonicalForm.constant(0.0, graph.num_locals)

    seeds = {
        name: required_at_outputs.get(name, default_required)
        for name in graph.outputs
    }
    width = max(
        arrays.num_corr, max((f.num_locals + 1 for f in seeds.values()), default=1)
    )
    state = _empty_state(arrays, width)
    _seed_required(state, arrays, seeds)
    mean, corr, randvar, valid = state
    _fold_levels(
        arrays, arrays.backward_levels(), arrays.edge_sink,
        pad_corr(arrays.edge_corr, width), *state, seed_first=True,
    )
    np.negative(mean, out=mean)
    np.negative(corr, out=corr)
    return VertexTimes(arrays, mean, corr, randvar, valid)


def propagate_required_times(
    graph: TimingGraph,
    required_at_outputs: Optional[Mapping[str, CanonicalForm]] = None,
    default_required: Optional[CanonicalForm] = None,
) -> Dict[str, CanonicalForm]:
    """:func:`propagate_required_times_batch` as a vertex-to-form dictionary."""
    return propagate_required_times_batch(
        graph, required_at_outputs, default_required
    ).as_dict()


# ----------------------------------------------------------------------
# Slacks
# ----------------------------------------------------------------------
def compute_slacks_batch(
    graph: TimingGraph,
    required_time: CanonicalForm,
    input_arrivals: Optional[Mapping[str, CanonicalForm]] = None,
) -> VertexTimes:
    """Statistical slack (required minus arrival) at every vertex.

    ``required_time`` is applied at every output; slack distributions with
    negative means indicate paths that nominally violate the constraint.
    One forward and one backward levelized pass over the graph's view,
    then a single vectorized subtraction ``required - arrival`` (private
    variances add); a vertex is ``valid`` when it is reachable in both.
    """
    arrays = GraphArrays.of(graph)
    arrival = _arrival_times(arrays, input_arrivals)
    required = _required_times(
        arrays, {vertex: required_time for vertex in graph.outputs}
    )
    width = max(arrival.corr.shape[1], required.corr.shape[1])
    mean = required.mean - arrival.mean
    corr = pad_corr(required.corr, width) - pad_corr(arrival.corr, width)
    randvar = required.randvar + arrival.randvar
    valid = required.valid & arrival.valid
    return VertexTimes(arrays, mean, corr, randvar, valid)


def compute_slacks(
    graph: TimingGraph,
    required_time: CanonicalForm,
    input_arrivals: Optional[Mapping[str, CanonicalForm]] = None,
) -> Dict[str, CanonicalForm]:
    """:func:`compute_slacks_batch` as a vertex-to-form dictionary."""
    return compute_slacks_batch(graph, required_time, input_arrivals).as_dict()
