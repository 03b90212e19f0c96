"""Edge criticality computation (Section IV.B of the paper).

For an edge ``e`` and an input/output pair ``(i, j)`` the criticality
``c_ij`` is the probability that ``e`` lies on the critical path between
``v_i`` and ``v_j``.  Following Xiong/Zolotov/Visweswariah (eq. 13-15):

    d_e  = a_e + d + r_e          (longest path through e)
    c_ij = Prob{ d_e >= M_ij }    (M_ij = longest path overall)

where ``a_e`` is the arrival time at the source of ``e`` exclusively from
input ``i``, ``r_e`` the maximum delay from the sink of ``e`` to output
``j`` and ``d`` the edge delay itself.  The probability is evaluated with
the Gaussian tightness-probability formula (eq. 6) on the canonical forms.

One production engine evaluates the formulas: the **batched** kernel
(:func:`edge_criticality_batch`) rides the all-pairs forward sweep over
input blocks (:meth:`~repro.timing.allpairs.AllPairsTiming._sweep_inputs`).
A one-shot analysis folds each block's arrival columns while the sweep
fills the delay matrix, so the ``(V, I)`` arrival tensors never exist; a
session's blocks are views of its dense tensors, so both give the same
bits.  Per block, the kernel stacks chunks of the edges the block reaches
into ``(chunk, B, O)`` tensors, the criticality analogue of the
:mod:`repro.core.batch` propagation kernels, with the block's delay-matrix
moments hoisted out of the per-edge loop, and keeps every edge's largest
``z`` across the blocks.  The chunks are sized from
:data:`CRITICALITY_CHUNK_PAIRS` alone (:func:`auto_chunk_edges`).  Another
chunking or block width gives the same values within the 1e-9 contract,
not bitwise: BLAS rounds a contraction differently for another stack shape
(one-edge chunks move thousands of c7552 values, by up to 2e-11).  A long
run therefore spreads each block's chunks over the usable CPUs through the
shared thread loop of :mod:`repro.core.chunk_threads` instead of cutting
new ones, and its values are bit-identical to the serial loop's.
The one-edge-at-a-time **scalar reference** the kernel is verified
against, ``edge_criticality_matrix``, lives with the other test oracles
in ``tests/oracles.py``.  Both execute the same floating-point expressions
(the probability tail is the single shared
:func:`repro.core.batch.tightness_from_moments` kernel), so they agree to
BLAS round-off; the parity contract asserted by the property suite is
1e-9.  An extraction session reruns the batched kernel after every
all-pairs refresh that was not a no-op.  Every entry point needs the
to-output tensors, which a matrix-only (blocked) analysis past the
all-pairs memory budget does not hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core import chunk_threads
from repro.core.batch import FoldWorkspace
from repro.core.gaussian import DEGENERATE_THETA, normal_cdf
from repro.errors import ModelExtractionError
from repro.timing.allpairs import (
    _SUFFIXES,
    ALLPAIRS_BUDGET_ENV,
    AllPairsTiming,
    allpairs_budget_floats,
    to_output_floats,
)
from repro.timing.arrays import _require_current
from repro.timing.graph import TimingEdge, TimingGraph

__all__ = [
    "CRITICALITY_CHUNK_PAIRS",
    "CriticalityResult",
    "auto_chunk_edges",
    "compute_edge_criticalities",
    "edge_criticality_batch",
]

_MEAN_EPSILON = 1e-9

# Relative degeneracy floor shared by the batched kernel and the scalar
# reference (see
# :func:`repro.core.batch.tightness_from_moments`): ``theta_sq`` below
# ``1e-12 * (var(d_e) + var(M))`` — i.e. the edge's path decorrelated from
# the pair maximum by less than one part in 1e6 sigma — is treated as an
# exact tie.  Without the relative floor, the catastrophic cancellation in
# ``var_a + var_b - 2 cov`` makes the tie classification depend on einsum
# accumulation order, and the batched kernel and the scalar reference
# disagree by O(1) on fully-critical edges.
THETA_RELATIVE_EPSILON = 1e-12

# Edge chunks are sized so one (chunk, I, O) float64 tensor stays around
# 4 MB: the kernel streams ~15 elementwise passes over a handful of
# same-shaped reused buffers, so the chunk working set must stay
# last-level-cache resident — measured on c7552 (207 x 108 pairs, ~23
# edges per chunk), throughput degrades ~40% by 16 MB tensors and the
# sweet spot is flat between 2^17 and 2^20 pairs.  Read on every call.
# Another budget gives the same values within the 1e-9 contract, not
# bitwise: BLAS rounding depends on the chunk shape.
CRITICALITY_CHUNK_PAIRS = 1 << 19

def auto_chunk_edges(num_inputs: int, num_outputs: int, num_corr: int) -> int:
    """Edge-chunk size bounding the batched kernel's float working set.

    One chunk streams a handful of ``(chunk, I, O)`` pair tensors plus
    the two correlation gathers ``(chunk, I, K)`` and ``(chunk, O, K)``
    (see :func:`_chunk_terms`), so the per-edge float cost is ``I*O +
    (I + O)*K`` — on correlation-heavy graphs the gathers, not the pair
    tensors, dominate, which is why the sizer must see ``num_corr``.  The
    chunk is sized to hold at most :data:`CRITICALITY_CHUNK_PAIRS` such
    floats, and never fewer than one edge regardless of how extreme the
    pair space is.
    """
    per_edge = max(1, int(num_inputs) * int(num_outputs)) + (
        int(num_inputs) + int(num_outputs)
    ) * max(0, int(num_corr))
    return max(1, CRITICALITY_CHUNK_PAIRS // per_edge)


@dataclass
class CriticalityResult:
    """Maximum criticality of every edge of a timing graph.

    Attributes
    ----------
    max_criticality:
        ``edge_id -> c_m`` (eq. of Definition 2); edges lying on no
        input-to-output path have criticality 0.
    argmax_pairs:
        ``edge_id -> (i, j)``: one input/output pair attaining the maximum
        (``(-1, -1)`` when the pair matrix is empty).  Persisted with the
        values by :mod:`repro.model.serialization` and the snapshot store;
        ``None`` on results loaded from payloads written without it.
    """

    max_criticality: Dict[int, float]
    argmax_pairs: Optional[Dict[int, "tuple[int, int]"]] = field(
        default=None, compare=False
    )

    def values(self) -> np.ndarray:
        """All maximum criticalities as an array (for histograms)."""
        return np.asarray(list(self.max_criticality.values()), dtype=float)

    def histogram(self, bins: int = 20) -> "tuple[np.ndarray, np.ndarray]":
        """Histogram of the maximum criticalities over [0, 1] (Fig. 6)."""
        return np.histogram(self.values(), bins=bins, range=(0.0, 1.0))

    def below(self, threshold: float) -> Dict[int, float]:
        """Edges whose maximum criticality is below ``threshold``."""
        return {
            edge_id: value
            for edge_id, value in self.max_criticality.items()
            if value < threshold
        }


def _empty_pair_space_result(edges: Iterable[TimingEdge]) -> CriticalityResult:
    """The result of ``edges`` when the input/output pair space is empty.

    With no designated inputs or no designated outputs there is no
    input-to-output pair, so no edge lies on any input-to-output path and
    every edge has criticality 0 (with no attaining pair).  Returning this
    instead of raising keeps histogram/threshold consumers total on
    degenerate modules.
    """
    edges = list(edges)
    return CriticalityResult(
        {edge.edge_id: 0.0 for edge in edges},
        {edge.edge_id: (-1, -1) for edge in edges},
    )


def _require_to_output(analysis: AllPairsTiming) -> None:
    """Raise unless ``analysis`` holds the to-output tensors (not blocked)."""
    if analysis.to_output_mean is None:
        arrays = analysis.arrays
        footprint = to_output_floats(
            arrays.num_vertices, analysis.num_outputs, arrays.num_corr
        )
        raise ModelExtractionError(
            "edge criticality of %r needs the to-output tensors (%d floats; "
            "budget %d floats, %s), not a blocked analysis"
            % (arrays.graph.name, footprint, allpairs_budget_floats(),
               ALLPAIRS_BUDGET_ENV)
        )


# ----------------------------------------------------------------------
# The batched (edge-chunked) kernel
# ----------------------------------------------------------------------
@dataclass
class _HoistedMoments:
    """Edge-invariant terms of one input block, computed once for its chunks.

    The block's ``(V, B, ...)`` arrival state and its rows of the delay
    matrix.  The scalar reference recomputes ``m_var`` and
    ``mean_tolerance`` for every edge, which is part of what the batched
    kernel saves.  The two contiguous transposed copies of the matrix
    coefficients feed the batched BLAS contractions of :func:`_chunk_terms`
    without a per-chunk re-layout.
    """

    arrival: Tuple[np.ndarray, ...]  # (V, B, ...) mean, corr, randvar, valid
    m_mean: np.ndarray  # (B, O) mean of M
    m_randvar: np.ndarray  # (B, O) private random variance of M
    m_valid: np.ndarray  # (B, O) pair validity of M
    m_var: np.ndarray  # (B, O) total variance of M
    neg_tolerance: np.ndarray  # (B, O) minus the tie tolerance
    m_corr_by_input: np.ndarray  # (B, K, O) contiguous matrix coefficients
    m_corr_by_output: np.ndarray  # (O, K, B) contiguous matrix coefficients


def _matrix_moments(analysis: AllPairsTiming, block=None) -> _HoistedMoments:
    """The hoisted terms of one ``(positions, arrival, matrix)`` block.

    ``block`` comes from the forward sweep
    (:meth:`~repro.timing.allpairs.AllPairsTiming._sweep_inputs`); by
    default it is the one block of every input, read from the analysis'
    arrival tensors (which a streamed analysis folds in full to give).
    """
    if block is None:
        block = (
            range(analysis.num_inputs),
            tuple(getattr(analysis, "arrival_" + name) for name in _SUFFIXES),
            tuple(getattr(analysis, "matrix_" + name) for name in _SUFFIXES),
        )
    _positions, arrival, (m_mean, m_corr, m_randvar, m_valid) = block
    m_var = np.einsum("ijk,ijk->ij", m_corr, m_corr) + m_randvar
    mean_tolerance = _MEAN_EPSILON * np.maximum(1.0, np.abs(m_mean))
    return _HoistedMoments(
        arrival=arrival,
        m_mean=np.ascontiguousarray(m_mean),
        m_randvar=np.ascontiguousarray(m_randvar),
        m_valid=np.ascontiguousarray(m_valid),
        m_var=m_var,
        neg_tolerance=-mean_tolerance,
        m_corr_by_input=np.ascontiguousarray(m_corr.transpose(0, 2, 1)),
        m_corr_by_output=np.ascontiguousarray(m_corr.transpose(1, 2, 0)),
    )


def _analysis_work(analysis: AllPairsTiming, threads: int) -> List[FoldWorkspace]:
    """Reusable scratch buffers of the batched kernel, one per thread.

    Cached on the analysis object so repeated evaluations over the same
    tensors (one recompute per session refresh) skip the cold
    page-faulted allocations.  Only *uninitialised scratch* is cached —
    never values derived from the tensors, which an attached session
    patches in place between refreshes.  A workspace's views are
    contiguous prefixes of flat buffers, so one workspace serves chunks of
    every shape: the narrower chunks of a last, narrower block included.
    """
    works = getattr(analysis, "_criticality_scratch", None)
    if works is None:
        works = analysis._criticality_scratch = []
    while len(works) < threads:
        works.append(FoldWorkspace())
    return works[:threads]


def _chunk_terms(
    analysis: AllPairsTiming,
    rows: np.ndarray,
    moments: _HoistedMoments,
    work: Optional[FoldWorkspace] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pre-probability criticality terms of one edge chunk in one input block.

    Returns ``(z, degenerate, tied, valid)``, all shaped ``(E, B, O)`` for
    the ``B`` inputs of the block ``moments`` describes and (when ``work``
    is supplied) backed by reusable buffers that the next chunk
    overwrites.  Writing ``nd`` for the standard normal CDF, the
    criticality matrix of edge ``e`` is::

        where(valid, where(degenerate, tied, nd(z)), 0)

    The formulation exploits the structure of the reference's two
    covariance bounds (``cov_ind`` from the coefficient contraction alone,
    ``cov_shared = cov_ind + s`` with the overlap ``s >= 0``): the
    probability is monotone in the covariance, so the shared bound attains
    the maximum exactly when the mean gap ``delta = mean(d_e) - mean(M)``
    is non-negative, and since ``d_e`` folds into the pair maximum ``M``
    that only happens for (near-)fully-critical pairs — ``delta >=
    -mean_tolerance`` (the ``tie`` set), a thin sliver of the pair space
    on real modules.  Dense work therefore evaluates only the independent
    bound; the tie sliver is refined sparsely (gathered through flat
    indices) with the shared bound, where also the exact-tie pairs
    (``degenerate`` under the shared bound) resolve to the deterministic
    0/1 rule.  ``maximum(nd(z_a), nd(z_b)) == nd(maximum(z_a, z_b))``
    since ``nd`` is non-decreasing, so the values equal the reference's
    two-pass maximum exactly (modulo BLAS round-off in the contractions,
    the usual 1e-9 contract).

    Keeping the result in ``z``-space is what makes the driver fast: the
    per-edge *maximum* criticality needs only ``argmax(z)`` per edge and a
    single CDF evaluation per edge instead of one per pair.
    """
    arrays = analysis.arrays
    src = arrays.edge_source[rows]
    snk = arrays.edge_sink[rows]
    num_edges = rows.size
    num_inputs = moments.m_mean.shape[0]
    num_outputs = analysis.num_outputs
    shape = (num_edges, num_inputs, num_outputs)
    if work is None:
        work = FoldWorkspace()

    # Arrival side per (edge, input), including each edge's own delay.
    arrival_mean, arrival_corr, arrival_randvar, arrival_valid = moments.arrival
    num_corr = arrival_corr.shape[2]
    a_mean = arrival_mean[src] + arrays.edge_mean[rows, np.newaxis]
    a_corr = work.view("a_corr", (num_edges, num_inputs, num_corr))
    np.take(arrival_corr, src, axis=0, out=a_corr)
    a_corr += arrays.edge_corr[rows, np.newaxis, :]
    a_randvar = arrival_randvar[src] + arrays.edge_randvar[rows, np.newaxis]
    a_valid = arrival_valid[src]
    # Path-to-output side per (edge, output).
    r_mean = analysis.to_output_mean[snk]
    r_corr = work.view("r_corr", (num_edges, num_outputs, num_corr))
    np.take(analysis.to_output_corr, snk, axis=0, out=r_corr)
    r_randvar = analysis.to_output_randvar[snk]
    r_valid = analysis.to_output_valid[snk]

    a_var = np.einsum("eik,eik->ei", a_corr, a_corr) + a_randvar
    r_var = np.einsum("ejk,ejk->ej", r_corr, r_corr) + r_randvar

    # Mean gap of d_e against M for every pair, and the pair masks.
    delta = work.view("delta", shape)
    np.subtract(a_mean[:, :, np.newaxis], moments.m_mean, out=delta)
    delta += r_mean[:, np.newaxis, :]

    valid = work.view("valid", shape, bool)
    np.logical_and(
        r_valid[:, np.newaxis, :], moments.m_valid, out=valid
    )
    valid &= a_valid[:, :, np.newaxis]

    tie = work.view("tie", shape, bool)
    np.greater_equal(delta, moments.neg_tolerance, out=tie)
    tie &= valid
    flat_tie = np.flatnonzero(tie.reshape(-1))

    # The coefficient contractions, as contiguous batched BLAS matmuls:
    # the d_e cross term (into what becomes var_sum) and the independent
    # covariance bound cov_ind = (a_corr + r_corr) . m_corr.
    var_sum = work.view("var_sum", shape)
    np.matmul(a_corr, r_corr.transpose(0, 2, 1), out=var_sum)  # a . r
    cov = work.view("cov", shape)
    a_side = work.view("a_side", (num_inputs, num_edges, num_outputs))
    np.matmul(a_corr.transpose(1, 0, 2), moments.m_corr_by_input, out=a_side)
    r_side = work.view("r_side", (num_outputs, num_edges, num_inputs))
    np.matmul(r_corr.transpose(1, 0, 2), moments.m_corr_by_output, out=r_side)
    np.add(a_side.transpose(1, 0, 2), r_side.transpose(1, 2, 0), out=cov)

    # var_sum = var(d_e) + var(M), grown in place around the cross term.
    var_sum *= 2.0
    var_sum += a_var[:, :, np.newaxis]
    var_sum += r_var[:, np.newaxis, :]
    var_sum += moments.m_var

    # Sparse snapshots for the shared-bound refinement, taken before the
    # buffers are consumed by the in-place theta/z computation below.
    if flat_tie.size:
        cov_at_tie = cov.reshape(-1)[flat_tie]
        var_sum_at_tie = var_sum.reshape(-1)[flat_tie]

    # Degeneracy floor (see tightness_from_moments): absolute epsilon
    # widened relative to the variance scale, so the kernel and the scalar
    # reference classify analytically-tied operands identically.
    floor = work.view("floor", shape)
    np.multiply(var_sum, THETA_RELATIVE_EPSILON, out=floor)
    np.maximum(floor, DEGENERATE_THETA * DEGENERATE_THETA, out=floor)

    # theta^2 of the independent bound, in place over the covariance.
    cov *= -2.0
    cov += var_sum
    np.maximum(cov, 0.0, out=cov)
    degenerate = work.view("degenerate", shape, bool)
    np.less_equal(cov, floor, out=degenerate)
    np.sqrt(cov, out=cov)
    np.copyto(cov, 1.0, where=degenerate)
    z = np.divide(delta, cov, out=var_sum)

    tied = work.view("tied", shape, bool)
    tied[...] = False

    if flat_tie.size:
        # Shared-bound refinement of the tie sliver: cov_shared = cov_ind
        # + min(randvar(d_e), randvar(M)) pair by pair, exactly the
        # reference's second tightness evaluation, restricted to the only
        # pairs where it can win.
        pair = flat_tie % (num_inputs * num_outputs)
        edge_pos = flat_tie // (num_inputs * num_outputs)
        input_pos = pair // num_outputs
        output_pos = pair % num_outputs
        de_randvar = (
            a_randvar[edge_pos, input_pos] + r_randvar[edge_pos, output_pos]
        )
        shared = np.minimum(de_randvar, moments.m_randvar.reshape(-1)[pair])
        theta_sq = var_sum_at_tie - 2.0 * (cov_at_tie + shared)
        np.maximum(theta_sq, 0.0, out=theta_sq)
        deg_shared = theta_sq <= floor.reshape(-1)[flat_tie]
        # At tie pairs the selected bound is the shared one: its
        # degeneracy drives the 0/1 rule (an attained tie scores exactly
        # 1.0), its theta the z-score.
        degenerate.reshape(-1)[flat_tie] = deg_shared
        tied.reshape(-1)[flat_tie] = deg_shared
        delta_at_tie = delta.reshape(-1)[flat_tie]
        live = (delta_at_tie >= 0.0) & ~deg_shared
        if live.any():
            z.reshape(-1)[flat_tie[live]] = delta_at_tie[live] / np.sqrt(
                theta_sq[live]
            )
    return z, degenerate, tied, valid


def _edge_rows(analysis: AllPairsTiming, edges: List[TimingEdge]) -> np.ndarray:
    edge_rows = analysis.arrays.edge_rows
    return np.fromiter(
        (edge_rows[edge.edge_id] for edge in edges), np.int64, len(edges)
    )


def edge_criticality_batch(
    analysis: AllPairsTiming,
    edges: Optional[Iterable[TimingEdge]] = None,
) -> CriticalityResult:
    """Maximum criticality of ``edges`` through the edge-chunked kernel.

    ``edges`` defaults to every edge of the analysed graph.  The forward
    sweep hands over one input block at a time; within a block, edges are
    processed in chunks sized by :func:`auto_chunk_edges` so the chunk's
    pair tensors and correlation gathers together hold at most
    :data:`CRITICALITY_CHUNK_PAIRS` floats, bounding peak memory
    independently of the module's pair-space and correlation widths (and
    keeping the chunk working set cache resident); the block's
    delay-matrix moments are computed once for all its chunks.  The
    per-edge maximum is reduced in ``z``-space (one normal-CDF evaluation
    per edge, see :func:`_chunk_terms`), so values match the scalar
    reference's pair-space maximum exactly up to the 1e-9 BLAS round-off
    contract; the reported argmax pair always attains the maximum but may
    differ from the scalar argmax between tied pairs.  Another chunk budget
    or block width moves the values within that contract too, not bitwise,
    since BLAS rounds by the chunk shape.  That is why a run of many chunks
    spreads the same chunks over threads (:mod:`repro.core.chunk_threads`)
    instead of re-cutting them: any thread count gives the same bits.  On
    an empty edge set or an empty pair space the result is returned
    empty/zero instead of raising from an empty-array reduction.
    """
    _require_to_output(analysis)
    if edges is None:
        edges = analysis.arrays.graph.edges
    edge_list = list(edges)
    if not edge_list:
        return CriticalityResult({}, {})

    if analysis.num_inputs * analysis.num_outputs == 0:
        return _empty_pair_space_result(edge_list)

    values, best = _batched_edge_max(analysis, _edge_rows(analysis, edge_list))
    num_outputs = analysis.num_outputs
    max_criticality: Dict[int, float] = {}
    argmax_pairs: Dict[int, Tuple[int, int]] = {}
    for position, edge in enumerate(edge_list):
        max_criticality[edge.edge_id] = float(values[position])
        pair = int(best[position])
        argmax_pairs[edge.edge_id] = (pair // num_outputs, pair % num_outputs)
    return CriticalityResult(max_criticality, argmax_pairs)


def _batched_edge_max(
    analysis: AllPairsTiming,
    rows_all: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-edge maximum criticality over the pair space, block by block.

    Returns ``(values, best)``: the maximum of every edge row of
    ``rows_all`` and the flat index of an attaining pair.  The forward
    sweep (:meth:`~repro.timing.allpairs.AllPairsTiming._sweep_inputs`)
    hands over one input block at a time, and a block scores only the
    edges whose source one of its inputs reaches (the others score
    ``-inf`` on every pair of it).  Its chunks go to the shared thread
    loop (:func:`repro.core.chunk_threads.run_chunks` on
    :func:`~repro.core.chunk_threads._thread_count` threads, counted over
    the chunks of every block); each thread owns its scratch and writes
    only its chunks' edges.  Every edge keeps its largest ``z`` with the
    first flat pair attaining it and its first degenerate-tie pair; the
    tie rule applies once, after the last block.  That is the one-block
    kernel's choice over the whole pair space, and every chunk is
    evaluated exactly as the serial loop evaluates it, so any thread count
    and any order give the same bits.
    """
    num_outputs = analysis.num_outputs
    num_corr = analysis.arrays.num_corr
    threads = chunk_threads._thread_count(sum(
        -(-rows_all.size // auto_chunk_edges(len(positions), num_outputs, num_corr))
        for positions in analysis._input_blocks()
    ))
    works = _analysis_work(analysis, threads)
    best_z = np.full(rows_all.size, -np.inf)
    best = np.zeros(rows_all.size, dtype=np.int64)
    first_tie = np.full(rows_all.size, -1, dtype=np.int64)
    sources = analysis.arrays.edge_source[rows_all]

    def score_block(positions: range, arrival, matrix) -> None:
        moments = _matrix_moments(analysis, (positions, arrival, matrix))
        live = np.flatnonzero(arrival[3][sources].any(axis=1))
        num_pairs = len(positions) * num_outputs
        offset = positions.start * num_outputs
        chunk_edges = auto_chunk_edges(len(positions), num_outputs, num_corr)

        def run_chunk(thread: int, start: int) -> None:
            work = works[thread]
            at = live[start : start + chunk_edges]
            count = at.size
            z, degenerate, tied, valid = _chunk_terms(
                analysis, rows_all[at], moments, work
            )
            # Pairs whose value is nd(z): valid and not resolved through
            # the degenerate 0/1 rule; everything else scores -inf.
            unscored = work.view("unscored", valid.shape, bool)
            np.logical_not(valid, out=unscored)
            unscored |= degenerate
            np.copyto(z, -np.inf, where=unscored)
            z_flat = z.reshape(count, num_pairs)
            chunk_best = np.argmax(z_flat, axis=1)
            chunk_z = z_flat[np.arange(count), chunk_best]
            # Blocks go in input order, so a later block wins only with a
            # strictly larger z: the first attaining pair, as one argmax
            # over the whole pair space would pick it.
            wins = chunk_z > best_z[at]
            best_z[at[wins]] = chunk_z[wins]
            best[at[wins]] = chunk_best[wins] + offset
            tied_flat = tied.reshape(count, num_pairs)
            first = tied_flat.any(axis=1) & (first_tie[at] < 0)
            first_tie[at[first]] = np.argmax(tied_flat[first], axis=1) + offset

        chunk_threads.run_chunks(threads, range(0, live.size, chunk_edges), run_chunk)

    analysis._sweep_inputs(score_block)
    values = normal_cdf(best_z)  # nd(-inf) == 0.0
    # Degenerate ties contribute exactly 1.0 (criticality of a pair whose
    # maximum is attained by this edge's path identically).
    take_tie = (first_tie >= 0) & (values < 1.0)
    return np.where(take_tie, 1.0, values), np.where(take_tie, first_tie, best)


# ----------------------------------------------------------------------
# The drivers
# ----------------------------------------------------------------------
def compute_edge_criticalities(
    graph: TimingGraph,
    analysis: Optional[AllPairsTiming] = None,
) -> CriticalityResult:
    """Maximum criticality ``c_m`` of every edge of ``graph``.

    ``analysis`` may be supplied to reuse an existing all-pairs analysis;
    otherwise one is computed.  The edges are evaluated by the batched
    kernel (:func:`edge_criticality_batch`).  An analysis of another graph
    or of an older revision raises :class:`~repro.errors.TimingGraphError`,
    and a matrix-only (blocked) one :class:`~repro.errors.ModelExtractionError`.
    A graph without designated inputs or outputs has an empty pair space
    and yields an all-zero result instead of raising.
    """
    if analysis is None:
        if not graph.inputs or not graph.outputs:
            return _empty_pair_space_result(graph.edges)
        analysis = AllPairsTiming.analyze(graph)
    _require_current(graph, analysis.arrays, "analysis")
    return edge_criticality_batch(analysis, graph.edges)
