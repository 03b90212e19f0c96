"""Block-based SSTA propagation: batched levelized engine + object fallback.

These routines implement the classic single-traversal SSTA of Visweswariah
et al. on a :class:`~repro.timing.graph.TimingGraph`: arrival times are
propagated from the designated inputs to every vertex with the statistical
``sum`` and ``max`` operators, and required times backwards with ``sum`` and
``min``.  They are used both for module-level sanity analysis and for the
design-level hierarchical propagation (Section V, step 4).

Two engines share the public API:

* the **batched levelized engine** (default) keeps all per-vertex times in
  the structure-of-arrays layout of :class:`~repro.core.batch.CanonicalBatch`
  and processes each topological level's fanin (or fanout) edges with one
  batched Clark reduction per fold round — no per-edge Python arithmetic;
* the **object-level engine** (``engine="object"``) is the original
  per-edge loop over immutable :class:`~repro.core.canonical.CanonicalForm`
  operations, kept as the readable reference implementation and as the
  parity baseline the batched engine is tested against (it also serves the
  rare non-finite boundary conditions the array kernels do not model).

Both fold a vertex's candidate arrivals in identical order, so their
results agree to floating-point round-off (asserted to 1e-9 in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.batch import (
    CanonicalBatch,
    FoldWorkspace,
    merge_max_with_validity_into,
    pad_corr,
)
from repro.core.canonical import CanonicalForm
from repro.core.ops import statistical_max, statistical_min
from repro.errors import TimingGraphError
from repro.timing.arrays import GraphArrays, _graph_arrays
from repro.timing.graph import TimingGraph

__all__ = [
    "AUTO_BATCH_MIN_EDGES",
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


# ----------------------------------------------------------------------
# Batched vertex-time state
# ----------------------------------------------------------------------
@dataclass
class VertexTimes:
    """Batched per-vertex canonical times plus a reachability mask.

    ``mean``/``corr``/``randvar`` hold one canonical form per graph vertex
    in the SoA layout of :mod:`repro.core.batch`; ``valid`` marks the
    vertices that actually carry a time (the others' numeric content is
    meaningless, mirroring the absent dictionary entries of the
    object-level engine).
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


def _empty_state(
    arrays: GraphArrays, width: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    num_vertices = arrays.num_vertices
    return (
        np.zeros(num_vertices, dtype=float),
        np.zeros((num_vertices, width), dtype=float),
        np.zeros(num_vertices, dtype=float),
        np.zeros(num_vertices, dtype=bool),
    )


def _seed_form(
    mean: np.ndarray,
    corr: np.ndarray,
    randvar: np.ndarray,
    valid: np.ndarray,
    row: int,
    form: CanonicalForm,
    negate: bool = False,
) -> None:
    sign = -1.0 if negate else 1.0
    mean[row] = sign * form.nominal
    corr[row, :] = 0.0
    corr[row, 0] = sign * form.global_coeff
    corr[row, 1 : 1 + form.num_locals] = sign * form.local_coeffs
    randvar[row] = form.random_coeff * form.random_coeff
    valid[row] = True


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
    left-fold order per vertex as the object-level engine.  This is the
    single shared round body of the full levelized engines *and* the
    incremental dirty-cone sweep: their bit-identical candidate fold order
    (the invariant the incremental 1e-9 parity rests on) lives here and
    nowhere else.  ``init_round0`` makes round 0 initialise the
    accumulators (the arrival engines' ``best = candidate``); otherwise
    round 0 merges into pre-seeded accumulators (the backward engines'
    seed-first fold).

    All temporaries come from ``work`` (one is created when omitted), so a
    fold over many levels allocates each scratch buffer once instead of per
    round.  The per-vertex state may carry an extra trailing batch axis
    (``mean (V, B)``, ``corr (V, B, W)``): edge delays broadcast across the
    blocked axis, which is how the blocked all-pairs engine folds ``B``
    input columns per pass through this one shared body.
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

    Per level, the shared :func:`_fold_rounds` body merges the fanin (or
    fanout) candidates round by round.  Level vertices are pre-sorted by
    descending degree, so the participants of round ``r`` are the
    contiguous prefix ``[:round_counts[r]]`` and every fold operates on
    array slices.  ``seed_first`` controls whether a pre-seeded state value
    (e.g. the required time at an output) enters the fold before the edge
    candidates (backward engines) or is merged after them (arrival engine).

    Accumulators and every kernel temporary live in ``work`` (created when
    omitted, pass one in to share across passes): each buffer is allocated
    once at the widest level instead of once per level, so the fold's
    allocation count no longer grows with graph depth.  The state may carry
    a trailing blocked axis (see :func:`_fold_rounds`).
    """
    edge_mean = arrays.edge_mean
    edge_randvar = arrays.edge_randvar
    if work is None:
        work = FoldWorkspace()

    for level in levels:
        rows = level.vertex_rows
        num_level = rows.shape[0]
        acc_mean = work.view("acc_mean", (num_level,) + mean.shape[1:])
        acc_corr = work.view("acc_corr", (num_level,) + corr.shape[1:])
        acc_randvar = work.view("acc_randvar", (num_level,) + randvar.shape[1:])
        acc_valid = work.view("acc_valid", (num_level,) + valid.shape[1:], dtype=bool)
        if seed_first:
            np.take(mean, rows, axis=0, out=acc_mean)
            np.take(corr, rows, axis=0, out=acc_corr)
            np.take(randvar, rows, axis=0, out=acc_randvar)
            np.take(valid, rows, axis=0, out=acc_valid)
        # else: round 0 covers every vertex of the level (degree >= 1), so
        # the accumulators are fully written before they are first read.

        _fold_rounds(
            level.edge_matrix, level.round_counts, neighbor_rows,
            edge_mean, edge_corr, edge_randvar,
            mean, corr, randvar, valid,
            acc_mean, acc_corr, acc_randvar, acc_valid,
            init_round0=not seed_first, work=work,
        )

        if seed_first:
            mean[rows], corr[rows] = acc_mean, acc_corr
            randvar[rows], valid[rows] = acc_randvar, acc_valid
            continue
        seed_valid = work.view("seed_valid", acc_valid.shape, dtype=bool)
        np.take(valid, rows, axis=0, out=seed_valid)
        if seed_valid.any():
            # Merge a pre-seeded state (an input vertex that also has fanin)
            # after the fold, matching the object engine's final max.
            seed_mean = work.view("seed_mean", acc_mean.shape)
            seed_corr = work.view("seed_corr", acc_corr.shape)
            seed_randvar = work.view("seed_randvar", acc_randvar.shape)
            np.take(mean, rows, axis=0, out=seed_mean)
            np.take(corr, rows, axis=0, out=seed_corr)
            np.take(randvar, rows, axis=0, out=seed_randvar)
            merged_mean = work.view("merged_mean", acc_mean.shape)
            merged_corr = work.view("merged_corr", acc_corr.shape)
            merged_randvar = work.view("merged_randvar", acc_randvar.shape)
            merged_valid = work.view("merged_valid", acc_valid.shape, dtype=bool)
            merge_max_with_validity_into(
                acc_mean, acc_corr, acc_randvar, acc_valid,
                seed_mean, seed_corr, seed_randvar, seed_valid,
                merged_mean, merged_corr, merged_randvar, merged_valid, work,
            )
            mean[rows], corr[rows] = merged_mean, merged_corr
            randvar[rows], valid[rows] = merged_randvar, merged_valid
        else:
            mean[rows], corr[rows] = acc_mean, acc_corr
            randvar[rows], valid[rows] = acc_randvar, acc_valid


def _all_finite(forms) -> bool:
    return all(form.is_finite for form in forms)


# Below this edge count the object-level engine tends to win: the batched
# engine's per-level NumPy call overhead is amortised over too few vertices
# (deep, narrow graphs such as small ripple-carry chains are the worst case).
AUTO_BATCH_MIN_EDGES = 768


def _use_batch(graph: TimingGraph, engine: str, seeds) -> bool:
    """Resolve the ``engine`` argument to "use the batched engine or not".

    ``"batch"`` and ``"object"`` force an engine; ``"auto"`` (the default)
    picks the batched engine for graphs large enough to amortise its fixed
    per-level cost.  Non-finite seed forms (e.g. ``minus_infinity`` input
    masks) always fall back to the object engine, whose scalar operators
    define their algebra.
    """
    if engine == "object":
        return False
    if engine not in ("batch", "auto"):
        raise ValueError("unknown propagation engine %r" % engine)
    if not _all_finite(seeds):
        return False
    return engine == "batch" or graph.num_edges >= AUTO_BATCH_MIN_EDGES


# ----------------------------------------------------------------------
# Arrival times
# ----------------------------------------------------------------------
def propagate_arrival_times_batch(
    graph: TimingGraph,
    input_arrivals: Optional[Mapping[str, CanonicalForm]] = None,
    arrays: Optional[GraphArrays] = None,
) -> VertexTimes:
    """Levelized batched arrival-time propagation.

    Functionally identical to the object-level engine (same candidate fold
    order per vertex) but processes each topological level's fanin edges as
    batched Clark reductions.  ``arrays`` may be passed to reuse a
    previously built :class:`GraphArrays` view of ``graph``; arrays of
    another graph or of an older revision raise
    :class:`~repro.errors.TimingGraphError` (call
    :meth:`GraphArrays.refresh` after editing the graph).
    """
    arrays = _graph_arrays(graph, arrays)
    input_arrivals = dict(input_arrivals or {})
    seeds = {
        name: input_arrivals[name] for name in graph.inputs if name in input_arrivals
    }

    width = max(
        arrays.num_corr, max((f.num_locals + 1 for f in seeds.values()), default=1)
    )
    mean, corr, randvar, valid = _empty_state(arrays, width)
    index = arrays.vertex_index
    for name in graph.inputs:
        form = seeds.get(name)
        if form is None:
            valid[index[name]] = True  # deterministic zero arrival
        else:
            _seed_form(mean, corr, randvar, valid, index[name], form)

    _fold_levels(
        arrays, arrays.forward_levels(), arrays.edge_source,
        pad_corr(arrays.edge_corr, width),
        mean, corr, randvar, valid, seed_first=False,
    )
    return VertexTimes(arrays, mean, corr, randvar, valid)


def propagate_arrival_times(
    graph: TimingGraph,
    input_arrivals: Optional[Mapping[str, CanonicalForm]] = None,
    engine: str = "auto",
) -> Dict[str, CanonicalForm]:
    """Propagate arrival times from the graph inputs to every vertex.

    ``input_arrivals`` optionally supplies the arrival time at each input
    vertex (defaults to a deterministic zero).  Vertices unreachable from
    any input get no entry in the returned mapping.  ``engine`` selects the
    batched levelized engine (``"batch"``), the object-level reference loop
    (``"object"``) or a size-based choice between them (``"auto"``, the
    default); non-finite input arrivals (e.g. ``minus_infinity`` masks)
    always use the object-level engine, whose scalar operators define their
    algebra.
    """
    input_arrivals = dict(input_arrivals or {})
    if _use_batch(graph, engine, input_arrivals.values()):
        return propagate_arrival_times_batch(graph, input_arrivals).as_dict()

    arrivals: Dict[str, CanonicalForm] = {}
    zero = CanonicalForm.constant(0.0, graph.num_locals)

    for vertex in graph.inputs:
        arrivals[vertex] = input_arrivals.get(vertex, zero)

    for vertex in graph.topological_order():
        fanin = graph.fanin_edges(vertex)
        if not fanin:
            continue
        best: Optional[CanonicalForm] = None
        for edge in fanin:
            source_arrival = arrivals.get(edge.source)
            if source_arrival is None:
                continue
            candidate = source_arrival.add(edge.delay)
            best = candidate if best is None else statistical_max(best, candidate)
        if best is not None:
            if vertex in arrivals:
                best = statistical_max(best, arrivals[vertex])
            arrivals[vertex] = best
    return arrivals


def circuit_delay(
    graph: TimingGraph,
    input_arrivals: Optional[Mapping[str, CanonicalForm]] = None,
    engine: str = "auto",
) -> CanonicalForm:
    """Statistical maximum arrival time over the graph outputs.

    The batched engine reduces the reachable output arrivals with the
    balanced tree kernel; the object engine folds them sequentially.
    """
    input_arrivals = dict(input_arrivals or {})
    if _use_batch(graph, engine, input_arrivals.values()):
        times = propagate_arrival_times_batch(graph, input_arrivals)
        rows = [row for row in times.arrays.output_rows if times.valid[row]]
        if not rows:
            raise TimingGraphError(
                "no output of %r is reachable from any input" % graph.name
            )
        return times.batch.gather(rows).max_over()

    arrivals = propagate_arrival_times(graph, input_arrivals, engine="object")
    best: Optional[CanonicalForm] = None
    for vertex in graph.outputs:
        arrival = arrivals.get(vertex)
        if arrival is None:
            continue
        best = arrival if best is None else statistical_max(best, arrival)
    if best is None:
        raise TimingGraphError(
            "no output of %r is reachable from any input" % graph.name
        )
    return best


# ----------------------------------------------------------------------
# Backward propagation
# ----------------------------------------------------------------------
def longest_path_to_outputs_batch(
    graph: TimingGraph,
    arrays: Optional[GraphArrays] = None,
) -> VertexTimes:
    """Levelized batched maximum delay from every vertex to any output."""
    arrays = _graph_arrays(graph, arrays)
    mean, corr, randvar, valid = _empty_state(arrays, arrays.num_corr)
    valid[arrays.output_rows] = True  # deterministic zero at every output

    _fold_levels(
        arrays, arrays.backward_levels(), arrays.edge_sink, arrays.edge_corr,
        mean, corr, randvar, valid, seed_first=True,
    )
    return VertexTimes(arrays, mean, corr, randvar, valid)


def longest_path_to_outputs(
    graph: TimingGraph, engine: str = "auto"
) -> Dict[str, CanonicalForm]:
    """Maximum statistical delay from every vertex to any graph output.

    This is the "negative required time with the output required time set to
    zero" used by the paper's criticality computation (eq. 15); it is the
    backward analogue of :func:`propagate_arrival_times`.
    """
    if _use_batch(graph, engine, ()):
        return longest_path_to_outputs_batch(graph).as_dict()

    zero = CanonicalForm.constant(0.0, graph.num_locals)
    to_output: Dict[str, CanonicalForm] = {vertex: zero for vertex in graph.outputs}

    for vertex in reversed(graph.topological_order()):
        fanout = graph.fanout_edges(vertex)
        if not fanout:
            continue
        best: Optional[CanonicalForm] = to_output.get(vertex)
        for edge in fanout:
            sink_delay = to_output.get(edge.sink)
            if sink_delay is None:
                continue
            candidate = sink_delay.add(edge.delay)
            best = candidate if best is None else statistical_max(best, candidate)
        if best is not None:
            to_output[vertex] = best
    return to_output


def propagate_required_times_batch(
    graph: TimingGraph,
    required_at_outputs: Optional[Mapping[str, CanonicalForm]] = None,
    default_required: Optional[CanonicalForm] = None,
    arrays: Optional[GraphArrays] = None,
) -> VertexTimes:
    """Levelized batched backward required-time propagation.

    Runs the backward ``min``/``sum`` recursion as a forward-style ``max``
    fold on the *negated* state (``min(A,B) = -max(-A,-B)``): the state
    holds ``-required``, a fanout candidate ``required(sink) - delay``
    becomes ``state(sink) + delay``, and the result is negated back at the
    end.  Candidate order matches the object-level engine exactly.
    """
    arrays = _graph_arrays(graph, arrays)
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
    mean, corr, randvar, valid = _empty_state(arrays, width)
    index = arrays.vertex_index
    for name, form in seeds.items():
        _seed_form(mean, corr, randvar, valid, index[name], form, negate=True)

    _fold_levels(
        arrays, arrays.backward_levels(), arrays.edge_sink,
        pad_corr(arrays.edge_corr, width),
        mean, corr, randvar, valid, seed_first=True,
    )
    np.negative(mean, out=mean)
    np.negative(corr, out=corr)
    return VertexTimes(arrays, mean, corr, randvar, valid)


def propagate_required_times(
    graph: TimingGraph,
    required_at_outputs: Optional[Mapping[str, CanonicalForm]] = None,
    default_required: Optional[CanonicalForm] = None,
    engine: str = "auto",
) -> Dict[str, CanonicalForm]:
    """Propagate required times backwards from the outputs.

    The required time at a vertex is the statistical *minimum* over its
    fanout edges of ``required(sink) - delay``.  ``default_required``
    (default: deterministic zero) is used for outputs without an explicit
    entry in ``required_at_outputs``.
    """
    required_at_outputs = dict(required_at_outputs or {})
    seed_forms = list(required_at_outputs.values())
    if default_required is not None:
        seed_forms.append(default_required)
    if _use_batch(graph, engine, seed_forms):
        return propagate_required_times_batch(
            graph, required_at_outputs, default_required
        ).as_dict()

    if default_required is None:
        default_required = CanonicalForm.constant(0.0, graph.num_locals)

    required: Dict[str, CanonicalForm] = {}
    for vertex in graph.outputs:
        required[vertex] = required_at_outputs.get(vertex, default_required)

    for vertex in reversed(graph.topological_order()):
        fanout = graph.fanout_edges(vertex)
        if not fanout:
            continue
        best: Optional[CanonicalForm] = required.get(vertex) if graph.is_output(vertex) else None
        for edge in fanout:
            sink_required = required.get(edge.sink)
            if sink_required is None:
                continue
            candidate = sink_required.subtract(edge.delay)
            best = candidate if best is None else statistical_min(best, candidate)
        if best is not None:
            required[vertex] = best
    return required


# ----------------------------------------------------------------------
# Slacks
# ----------------------------------------------------------------------
def compute_slacks_batch(
    graph: TimingGraph,
    required_time: CanonicalForm,
    input_arrivals: Optional[Mapping[str, CanonicalForm]] = None,
    arrays: Optional[GraphArrays] = None,
) -> VertexTimes:
    """Batched statistical slack at every vertex reachable in both passes.

    One forward and one backward levelized pass over a shared
    :class:`GraphArrays` view, then a single vectorized subtraction
    ``required - arrival`` (private variances add) across all vertices.
    """
    arrays = _graph_arrays(graph, arrays)
    arrival = propagate_arrival_times_batch(graph, input_arrivals, arrays=arrays)
    required = propagate_required_times_batch(
        graph, {vertex: required_time for vertex in graph.outputs}, arrays=arrays
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
    engine: str = "auto",
) -> Dict[str, CanonicalForm]:
    """Statistical slack (required minus arrival) at every reachable vertex.

    ``required_time`` is applied at every output; slack distributions with
    negative means indicate paths that nominally violate the constraint.
    """
    input_arrivals = dict(input_arrivals or {})
    seeds = list(input_arrivals.values()) + [required_time]
    if _use_batch(graph, engine, seeds):
        return compute_slacks_batch(graph, required_time, input_arrivals).as_dict()

    arrivals = propagate_arrival_times(graph, input_arrivals, engine="object")
    required = propagate_required_times(
        graph, {vertex: required_time for vertex in graph.outputs}, engine="object"
    )
    slacks: Dict[str, CanonicalForm] = {}
    for vertex, arrival in arrivals.items():
        vertex_required = required.get(vertex)
        if vertex_required is None:
            continue
        slacks[vertex] = vertex_required.subtract(arrival)
    return slacks
