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
(:func:`edge_criticality_batch`) stacks chunks of edges into ``(chunk, I,
O)`` tensors, the criticality analogue of the :mod:`repro.core.batch`
propagation kernels, with the shared input/output delay-matrix moments
hoisted out of the per-edge loop.  :func:`edge_criticality_matrix` is the
one-edge-at-a-time **scalar reference** it is verified against; only tests
and benchmarks call it.  Both execute the same floating-point expressions
(the probability tail is the single shared
:func:`repro.core.batch.tightness_from_moments` kernel), so they agree to
BLAS round-off; the parity contract asserted by the property suite is
1e-9.  :func:`update_edge_criticalities` refreshes a result after an
all-pairs update and switches its exact incremental update to a batched
full recompute when an edit burst's change cross covers so much of the
pair space that incrementality would be slower
(``DENSE_EDIT_RECOMPUTE_FRACTION``).  Every entry point needs the dense
all-pairs tensors, which past the all-pairs memory budget do not exist.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.batch import tightness_from_moments
from repro.core.gaussian import normal_cdf
from repro.errors import ModelExtractionError
from repro.timing.allpairs import (
    ALLPAIRS_BUDGET_ENV,
    AllPairsTiming,
    AllPairsUpdate,
    allpairs_budget_floats,
    dense_tensor_floats,
)
from repro.timing.arrays import _graph_arrays
from repro.timing.graph import TimingEdge, TimingGraph

__all__ = [
    "CRITICALITY_CHUNK_PAIRS",
    "CRITICALITY_CHUNK_PAIRS_ENV",
    "DENSE_EDIT_RECOMPUTE_FRACTION",
    "CriticalityResult",
    "auto_chunk_edges",
    "compute_edge_criticalities",
    "criticality_chunk_pairs",
    "edge_criticality_batch",
    "edge_criticality_matrix",
    "edge_criticality_tensor",
    "update_edge_criticalities",
]

_MEAN_EPSILON = 1e-9
_THETA_EPSILON = 1e-12

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
# sweet spot is flat between 2^17 and 2^20 pairs.
CRITICALITY_CHUNK_PAIRS = 1 << 19

#: Environment variable overriding :data:`CRITICALITY_CHUNK_PAIRS`.
CRITICALITY_CHUNK_PAIRS_ENV = "REPRO_CRITICALITY_CHUNK_PAIRS"


def criticality_chunk_pairs() -> int:
    """The active per-chunk float budget of the batched criticality kernel.

    Reads ``REPRO_CRITICALITY_CHUNK_PAIRS`` on every call so tests and
    batch jobs can retune the chunk working set without touching code;
    raises a clear ``ValueError`` on a non-integer or non-positive
    override.  Falls back to :data:`CRITICALITY_CHUNK_PAIRS`.
    """
    raw = os.environ.get(CRITICALITY_CHUNK_PAIRS_ENV)
    if raw is None:
        return CRITICALITY_CHUNK_PAIRS
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError(
            "%s must be an integer, got %r"
            % (CRITICALITY_CHUNK_PAIRS_ENV, raw)
        ) from None
    if budget <= 0:
        raise ValueError(
            "%s must be positive, got %d" % (CRITICALITY_CHUNK_PAIRS_ENV, budget)
        )
    return budget


def auto_chunk_edges(
    num_inputs: int,
    num_outputs: int,
    num_corr: int,
    chunk_pairs: Optional[int] = None,
) -> int:
    """Edge-chunk size bounding the batched kernel's float working set.

    One chunk streams a handful of ``(chunk, I, O)`` pair tensors plus
    the two correlation gathers ``(chunk, I, K)`` and ``(chunk, O, K)``
    (see :func:`_chunk_terms`), so the per-edge float cost is ``I*O +
    (I + O)*K`` — on correlation-heavy graphs the gathers, not the pair
    tensors, dominate, which is why the sizer must see ``num_corr``.  The
    chunk is sized to hold at most ``chunk_pairs`` (default: the active
    :func:`criticality_chunk_pairs` budget) such floats, and never fewer
    than one edge regardless of how extreme the pair space is.
    """
    if chunk_pairs is None:
        chunk_pairs = criticality_chunk_pairs()
    if chunk_pairs <= 0:
        raise ValueError("chunk_pairs must be positive")
    per_edge = max(1, int(num_inputs) * int(num_outputs)) + (
        int(num_inputs) + int(num_outputs)
    ) * max(0, int(num_corr))
    return max(1, int(chunk_pairs) // per_edge)


# The incremental update switches to a batched full recompute when the
# estimated changed cross covers at least this fraction of the total
# (edges x pairs) space, where re-evaluating the cross in restricted
# passes no longer pays off against one full batched pass.
DENSE_EDIT_RECOMPUTE_FRACTION = 0.25

# Idle scratch-buffer budget per analysis (see _analysis_work): enough for
# the handful of pair-space shapes one edit burst touches, evicted LRU.
_SCRATCH_BUDGET_BYTES = 128 * 1024 * 1024


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
        (``(-1, -1)`` when the pair matrix is empty).  Bookkeeping for the
        incremental update (:func:`update_edge_criticalities`): as long as
        the attaining pair lies outside an update's changed region, the
        stored maximum bounds every untouched pair exactly and only the
        changed rectangle needs re-evaluation.  ``None`` on results built
        without it, which makes the incremental update fall back to a full
        recompute.
    engine:
        Which evaluation path produced the result: ``"batch"`` (a full
        pass of the batched kernel) or ``"incremental"`` (the exact cross
        update of :func:`update_edge_criticalities`).  Diagnostic metadata
        — excluded from equality and from serialization — that the
        dense-edit tests use to assert the auto-switch actually fired.
    """

    max_criticality: Dict[int, float]
    argmax_pairs: Optional[Dict[int, "tuple[int, int]"]] = field(
        default=None, compare=False
    )
    engine: Optional[str] = field(default=None, compare=False)

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
        engine="batch",
    )


def _require_dense(analysis: AllPairsTiming) -> None:
    """Raise unless ``analysis`` holds the per-vertex tensors (not blocked)."""
    if analysis.arrival_mean is None:
        arrays = analysis.arrays
        footprint = dense_tensor_floats(
            arrays.num_vertices, analysis.num_inputs, analysis.num_outputs,
            arrays.num_corr,
        )
        raise ModelExtractionError(
            "edge criticality of %r needs the dense all-pairs tensors (%d "
            "floats; budget %d floats, %s), not a blocked analysis"
            % (arrays.graph.name, footprint, allpairs_budget_floats(),
               ALLPAIRS_BUDGET_ENV)
        )


def edge_criticality_matrix(
    analysis: AllPairsTiming, edge: TimingEdge
) -> np.ndarray:
    """Criticality ``c_ij`` of one edge for every input/output pair.

    Returns an ``(I, O)`` array; pairs with no path through the edge (or no
    path at all) have criticality 0.  This is the scalar reference the
    batched kernel is verified against, to 1e-9: BLAS blocks the two
    kernels' contractions differently.
    """
    _require_dense(analysis)
    arrays = analysis.arrays
    edge_row = arrays.edge_rows[edge.edge_id]
    source_row = int(arrays.edge_source[edge_row])
    sink_row = int(arrays.edge_sink[edge_row])

    # Arrival side (per input), including the edge's own delay.
    a_mean = analysis.arrival_mean[source_row] + arrays.edge_mean[edge_row]
    a_corr = analysis.arrival_corr[source_row] + arrays.edge_corr[edge_row]
    a_randvar = analysis.arrival_randvar[source_row] + arrays.edge_randvar[edge_row]
    a_valid = analysis.arrival_valid[source_row]

    # Path-to-output side (per output).
    r_mean = analysis.to_output_mean[sink_row]
    r_corr = analysis.to_output_corr[sink_row]
    r_randvar = analysis.to_output_randvar[sink_row]
    r_valid = analysis.to_output_valid[sink_row]

    # d_e statistics for every pair (i, j).
    de_mean = a_mean[:, np.newaxis] + r_mean[np.newaxis, :]
    corr_cross = a_corr @ r_corr.T
    a_corr_sq = np.einsum("ik,ik->i", a_corr, a_corr)
    r_corr_sq = np.einsum("jk,jk->j", r_corr, r_corr)
    de_randvar = a_randvar[:, np.newaxis] + r_randvar[np.newaxis, :]
    de_var = (
        a_corr_sq[:, np.newaxis]
        + r_corr_sq[np.newaxis, :]
        + 2.0 * corr_cross
        + de_randvar
    )

    # Covariance between d_e and M_ij.  The correlated (global + local)
    # contribution follows from the coefficient dot products.  The private
    # random parts of the two quantities also overlap, because every path
    # through ``e`` is one of the paths aggregated into ``M_ij``, but the
    # canonical form no longer tracks which share of the lumped random
    # coefficient each path contributed.  The overlap therefore lies
    # somewhere between zero (no shared paths dominate M) and the smaller of
    # the two random variances (the paths through ``e`` dominate M).  The
    # criticality is evaluated under both bounds and the larger probability
    # is kept: an edge lying on every path of a pair correctly gets
    # criticality 1 (shared bound) while balanced parallel paths correctly
    # split the criticality (independent bound), and edge removal errs on
    # the conservative side.
    m_corr = analysis.matrix_corr
    m_randvar = analysis.matrix_randvar
    cov_correlated = np.einsum("ik,ijk->ij", a_corr, m_corr) + np.einsum(
        "jk,ijk->ij", r_corr, m_corr
    )
    shared_randvar = np.minimum(de_randvar, m_randvar)

    m_mean = analysis.matrix_mean
    m_var = np.einsum("ijk,ijk->ij", m_corr, m_corr) + m_randvar
    mean_tolerance = _MEAN_EPSILON * np.maximum(1.0, np.abs(m_mean))

    criticality = np.zeros_like(m_mean)
    for cov in (cov_correlated, cov_correlated + shared_randvar):
        probability = tightness_from_moments(
            de_mean, de_var, m_mean, m_var, cov, mean_tolerance,
            relative_epsilon=THETA_RELATIVE_EPSILON,
        )
        criticality = np.maximum(criticality, probability)

    pair_valid = (
        a_valid[:, np.newaxis] & r_valid[np.newaxis, :] & analysis.matrix_valid
    )
    return np.where(pair_valid, criticality, 0.0)


# ----------------------------------------------------------------------
# The batched (edge-chunked) kernel
# ----------------------------------------------------------------------
@dataclass
class _HoistedMoments:
    """Edge-invariant delay-matrix terms, computed once for all chunks.

    The scalar reference recomputes ``m_var`` and ``mean_tolerance`` for
    every edge, which is part of what the batched kernel saves.  The two
    contiguous transposed copies of the matrix coefficients feed the
    batched BLAS contractions of :func:`_chunk_terms` without a per-chunk
    re-layout.  When built restricted (``input_rows``/``output_cols``),
    every term is the corresponding sub-rectangle of the full pair space,
    which is what the incremental updater's cross passes evaluate.
    """

    m_mean: np.ndarray  # (I, O) mean of M
    m_randvar: np.ndarray  # (I, O) private random variance of M
    m_valid: np.ndarray  # (I, O) pair validity of M
    m_var: np.ndarray  # (I, O) total variance of M
    mean_tolerance: np.ndarray  # (I, O) tie tolerance
    neg_tolerance: np.ndarray  # -mean_tolerance (the broadcast comparand)
    m_corr_by_input: np.ndarray  # (I, K, O) contiguous matrix coefficients
    m_corr_by_output: np.ndarray  # (O, K, I) contiguous matrix coefficients


def _matrix_moments(
    analysis: AllPairsTiming,
    input_rows: Optional[np.ndarray] = None,
    output_cols: Optional[np.ndarray] = None,
) -> _HoistedMoments:
    m_mean = analysis.matrix_mean
    m_corr = analysis.matrix_corr
    m_randvar = analysis.matrix_randvar
    m_valid = analysis.matrix_valid
    if input_rows is not None:
        m_mean, m_corr = m_mean[input_rows], m_corr[input_rows]
        m_randvar, m_valid = m_randvar[input_rows], m_valid[input_rows]
    if output_cols is not None:
        m_mean, m_corr = m_mean[:, output_cols], m_corr[:, output_cols]
        m_randvar, m_valid = m_randvar[:, output_cols], m_valid[:, output_cols]
    m_var = np.einsum("ijk,ijk->ij", m_corr, m_corr) + m_randvar
    mean_tolerance = _MEAN_EPSILON * np.maximum(1.0, np.abs(m_mean))
    return _HoistedMoments(
        m_mean=np.ascontiguousarray(m_mean),
        m_randvar=np.ascontiguousarray(m_randvar),
        m_valid=np.ascontiguousarray(m_valid),
        m_var=m_var,
        mean_tolerance=mean_tolerance,
        neg_tolerance=-mean_tolerance,
        m_corr_by_input=np.ascontiguousarray(m_corr.transpose(0, 2, 1)),
        m_corr_by_output=np.ascontiguousarray(m_corr.transpose(1, 2, 0)),
    )


def _analysis_work(
    analysis: AllPairsTiming, num_inputs: int, num_outputs: int
) -> Dict[str, np.ndarray]:
    """Reusable scratch buffers keyed to one (restricted) pair-space shape.

    Cached on the analysis object so repeated evaluations over the same
    tensors (threshold sweeps, one incremental update per ECO round) skip
    the cold page-faulted allocations.  Only *uninitialised scratch* is
    cached — never values derived from the tensors, which an attached
    session patches in place between refreshes.
    """
    cache = getattr(analysis, "_criticality_scratch", None)
    if cache is None:
        cache = {}
        analysis._criticality_scratch = cache
    key = (num_inputs, num_outputs)
    work = cache.pop(key, None)
    if work is None:
        work = {}
    cache[key] = work  # re-insert: most recently used sits last
    # Bound the idle footprint in bytes (one update alternates between a
    # few shapes — full space plus the edit's restricted crosses — so
    # evict least-recently-used shapes beyond a few working sets).
    total = sum(
        buffer.nbytes
        for shape_work in cache.values()
        for buffer in shape_work.values()
    )
    for stale in list(cache):
        if total <= _SCRATCH_BUDGET_BYTES or stale == key:
            continue
        total -= sum(buffer.nbytes for buffer in cache[stale].values())
        del cache[stale]
    return work


def _view(
    work: Dict[str, np.ndarray],
    name: str,
    shape: "tuple[int, ...]",
    dtype: type = float,
) -> np.ndarray:
    """A reusable uninitialised chunk buffer (sliced to the chunk size).

    The first chunk of a batch run is the largest, so one allocation per
    name serves the whole run; reuse keeps the per-chunk working set hot
    in cache and avoids ~10 large allocations (page faults) per chunk.
    """
    buffer = work.get(name)
    if buffer is None or any(
        have < want for have, want in zip(buffer.shape, shape)
    ):
        buffer = np.empty(shape, dtype)
        work[name] = buffer
    if buffer.shape == shape:
        return buffer
    return buffer[tuple(slice(0, want) for want in shape)]


def _chunk_terms(
    analysis: AllPairsTiming,
    rows: np.ndarray,
    moments: _HoistedMoments,
    work: Optional[Dict[str, np.ndarray]] = None,
    input_rows: Optional[np.ndarray] = None,
    output_cols: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pre-probability criticality terms of one edge chunk.

    Returns ``(z, degenerate, tied, valid)``, all shaped ``(E, I, O)`` and
    (when ``work`` is supplied) backed by reusable buffers that the next
    chunk overwrites.  Writing ``nd`` for the standard normal CDF, the
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

    ``input_rows``/``output_cols`` restrict the evaluation to a pair
    sub-rectangle (``moments`` must have been built with the identical
    restriction): the per-edge gathers then select only the requested
    entries, so the cost scales with the restricted pair count — this is
    what lets the incremental updater re-evaluate a thin changed cross of
    many edges in one batched pass.
    """
    arrays = analysis.arrays
    src = arrays.edge_source[rows]
    snk = arrays.edge_sink[rows]
    num_edges = rows.size
    num_inputs = (
        analysis.num_inputs if input_rows is None else input_rows.size
    )
    num_outputs = (
        analysis.num_outputs if output_cols is None else output_cols.size
    )
    shape = (num_edges, num_inputs, num_outputs)
    if work is None:
        work = {}

    # Arrival side per (edge, input), including each edge's own delay.
    num_corr = analysis.arrival_corr.shape[2]
    if input_rows is None:
        a_mean = analysis.arrival_mean[src] + arrays.edge_mean[rows, np.newaxis]
        a_corr = _view(work, "a_corr", (num_edges, num_inputs, num_corr))
        np.take(analysis.arrival_corr, src, axis=0, out=a_corr)
        a_corr += arrays.edge_corr[rows, np.newaxis, :]
        a_randvar = (
            analysis.arrival_randvar[src] + arrays.edge_randvar[rows, np.newaxis]
        )
        a_valid = analysis.arrival_valid[src]
    else:
        pick = np.ix_(src, input_rows)
        a_mean = analysis.arrival_mean[pick] + arrays.edge_mean[rows, np.newaxis]
        a_corr = analysis.arrival_corr[pick] + arrays.edge_corr[rows, np.newaxis, :]
        a_randvar = (
            analysis.arrival_randvar[pick] + arrays.edge_randvar[rows, np.newaxis]
        )
        a_valid = analysis.arrival_valid[pick]
    # Path-to-output side per (edge, output).
    if output_cols is None:
        r_mean = analysis.to_output_mean[snk]
        r_corr = _view(work, "r_corr", (num_edges, num_outputs, num_corr))
        np.take(analysis.to_output_corr, snk, axis=0, out=r_corr)
        r_randvar = analysis.to_output_randvar[snk]
        r_valid = analysis.to_output_valid[snk]
    else:
        pick = np.ix_(snk, output_cols)
        r_mean = analysis.to_output_mean[pick]
        r_corr = analysis.to_output_corr[pick]
        r_randvar = analysis.to_output_randvar[pick]
        r_valid = analysis.to_output_valid[pick]

    a_var = np.einsum("eik,eik->ei", a_corr, a_corr) + a_randvar
    r_var = np.einsum("ejk,ejk->ej", r_corr, r_corr) + r_randvar

    # Mean gap of d_e against M for every pair, and the pair masks.
    delta = _view(work, "delta", shape)
    np.subtract(a_mean[:, :, np.newaxis], moments.m_mean, out=delta)
    delta += r_mean[:, np.newaxis, :]

    valid = _view(work, "valid", shape, bool)
    np.logical_and(
        r_valid[:, np.newaxis, :], moments.m_valid, out=valid
    )
    valid &= a_valid[:, :, np.newaxis]

    tie = _view(work, "tie", shape, bool)
    np.greater_equal(delta, moments.neg_tolerance, out=tie)
    tie &= valid
    flat_tie = np.flatnonzero(tie.reshape(-1))

    # The coefficient contractions, as contiguous batched BLAS matmuls:
    # the d_e cross term (into what becomes var_sum) and the independent
    # covariance bound cov_ind = (a_corr + r_corr) . m_corr.
    var_sum = _view(work, "var_sum", shape)
    np.matmul(a_corr, r_corr.transpose(0, 2, 1), out=var_sum)  # a . r
    cov = _view(work, "cov", shape)
    a_side = _view(work, "a_side", (num_inputs, num_edges, num_outputs))
    np.matmul(a_corr.transpose(1, 0, 2), moments.m_corr_by_input, out=a_side)
    r_side = _view(work, "r_side", (num_outputs, num_edges, num_inputs))
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
    floor = _view(work, "floor", shape)
    np.multiply(var_sum, THETA_RELATIVE_EPSILON, out=floor)
    np.maximum(floor, _THETA_EPSILON * _THETA_EPSILON, out=floor)

    # theta^2 of the independent bound, in place over the covariance.
    cov *= -2.0
    cov += var_sum
    np.maximum(cov, 0.0, out=cov)
    degenerate = _view(work, "degenerate", shape, bool)
    np.less_equal(cov, floor, out=degenerate)
    np.sqrt(cov, out=cov)
    np.copyto(cov, 1.0, where=degenerate)
    z = np.divide(delta, cov, out=var_sum)

    tied = _view(work, "tied", shape, bool)
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


def edge_criticality_tensor(
    analysis: AllPairsTiming,
    edges: Iterable[TimingEdge],
) -> np.ndarray:
    """Criticality matrices of several edges stacked into an ``(E, I, O)``.

    The materialised form of the batched kernel, row ``e`` matching
    ``edge_criticality_matrix(analysis, edges[e])`` to 1e-9.  Memory is the
    caller's responsibility (``E * I * O`` doubles per temporary) — use
    :func:`edge_criticality_batch` for the memory-bounded driver.
    """
    _require_dense(analysis)
    edge_list = list(edges)
    if not edge_list:
        return np.zeros(
            (0, analysis.num_inputs, analysis.num_outputs), dtype=float
        )
    z, degenerate, tied, valid = _chunk_terms(
        analysis,
        _edge_rows(analysis, edge_list),
        _matrix_moments(analysis),
    )
    criticality = np.where(degenerate, tied.astype(float), normal_cdf(z))
    return np.where(valid, criticality, 0.0)


def edge_criticality_batch(
    analysis: AllPairsTiming,
    edges: Optional[Iterable[TimingEdge]] = None,
    chunk_pairs: Optional[int] = None,
) -> CriticalityResult:
    """Maximum criticality of ``edges`` through the edge-chunked kernel.

    ``edges`` defaults to every edge of the analysed graph.  Edges are
    processed in chunks sized by :func:`auto_chunk_edges` so the chunk's
    pair tensors and correlation gathers together hold at most
    ``chunk_pairs`` floats (default: the active
    :func:`criticality_chunk_pairs` budget), bounding peak memory
    independently of the module's pair-space and correlation widths (and
    keeping the chunk working set cache resident); the shared
    delay-matrix moments are computed once for all chunks.  The per-edge
    maximum is reduced in ``z``-space (one normal-CDF evaluation per edge,
    see :func:`_chunk_terms`), so values match the scalar reference's
    pair-space maximum exactly up to the 1e-9 BLAS round-off contract; the
    reported argmax pair always attains the maximum but may differ from
    the scalar argmax between tied pairs.  On an empty edge set or an
    empty pair space the result is returned empty/zero instead of raising
    from an empty-array reduction.
    """
    _require_dense(analysis)
    if edges is None:
        edges = analysis.arrays.graph.edges
    edge_list = list(edges)
    if not edge_list:
        return CriticalityResult({}, {}, engine="batch")

    if analysis.num_inputs * analysis.num_outputs == 0:
        return _empty_pair_space_result(edge_list)

    if chunk_pairs is None:
        chunk_pairs = criticality_chunk_pairs()
    elif chunk_pairs <= 0:
        raise ValueError("chunk_pairs must be positive")
    rows_all = _edge_rows(analysis, edge_list)
    values, best = _batched_edge_max(
        analysis, rows_all, _matrix_moments(analysis), int(chunk_pairs),
        _analysis_work(analysis, analysis.num_inputs, analysis.num_outputs),
    )
    num_outputs = analysis.num_outputs
    max_criticality: Dict[int, float] = {}
    argmax_pairs: Dict[int, Tuple[int, int]] = {}
    for position, edge in enumerate(edge_list):
        max_criticality[edge.edge_id] = float(values[position])
        pair = int(best[position])
        argmax_pairs[edge.edge_id] = (pair // num_outputs, pair % num_outputs)
    return CriticalityResult(max_criticality, argmax_pairs, engine="batch")


def _batched_edge_max(
    analysis: AllPairsTiming,
    rows_all: np.ndarray,
    moments: _HoistedMoments,
    chunk_pairs: int,
    work: Dict[str, np.ndarray],
    input_rows: Optional[np.ndarray] = None,
    output_cols: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-edge maximum criticality over a (restricted) pair space, batched.

    The chunked driver shared by the cold batched pass and the incremental
    updater's cross re-evaluation.  Returns ``(values, best)``: the
    maximum of every edge row of ``rows_all`` and the flat index of an
    attaining pair in the (restricted) pair space.  ``moments`` must have
    been built with the same ``input_rows``/``output_cols`` restriction.
    """
    num_inputs = analysis.num_inputs if input_rows is None else input_rows.size
    num_outputs = (
        analysis.num_outputs if output_cols is None else output_cols.size
    )
    num_pairs = num_inputs * num_outputs
    chunk_edges = auto_chunk_edges(
        num_inputs,
        num_outputs,
        analysis.arrays.edge_corr.shape[1],
        chunk_pairs,
    )
    values = np.zeros(rows_all.size, dtype=float)
    best_all = np.zeros(rows_all.size, dtype=np.int64)
    for start in range(0, rows_all.size, chunk_edges):
        chunk_rows = rows_all[start : start + chunk_edges]
        count = chunk_rows.size
        z, degenerate, tied, valid = _chunk_terms(
            analysis, chunk_rows, moments, work, input_rows, output_cols
        )
        # Pairs whose value is nd(z): valid and not resolved through the
        # degenerate 0/1 rule; everything else scores -inf (nd == 0.0).
        unscored = _view(work, "unscored", valid.shape, bool)
        np.logical_not(valid, out=unscored)
        unscored |= degenerate
        np.copyto(z, -np.inf, where=unscored)
        z_flat = z.reshape(count, num_pairs)
        best = np.argmax(z_flat, axis=1)
        arange = np.arange(count)
        chunk_values = normal_cdf(z_flat[arange, best])  # nd(-inf) == 0.0
        # Degenerate ties contribute exactly 1.0 (criticality of a pair
        # whose maximum is attained by this edge's path identically).
        tied_flat = tied.reshape(count, num_pairs)
        has_tie = tied_flat.any(axis=1)
        tie_first = np.argmax(tied_flat, axis=1)
        take_tie = has_tie & (chunk_values < 1.0)
        values[start : start + count] = np.where(take_tie, 1.0, chunk_values)
        best_all[start : start + count] = np.where(take_tie, tie_first, best)
    return values, best_all


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
    _graph_arrays(graph, analysis.arrays, "analysis")
    return edge_criticality_batch(analysis, graph.edges)


def _estimated_cross_fraction(
    analysis: AllPairsTiming,
    update: AllPairsUpdate,
    m_extra_rows: int,
    m_extra_cols: int,
) -> float:
    """Estimated share of the (edges x pairs) space an update's cross covers.

    Upper-bound estimate: per edge the changed pairs lie inside
    ``dirty-source-rows x all-outputs + all-inputs x dirty-sink-columns``
    (plus the matrix cross, already folded into ``m_extra_*`` by the
    caller's row/column covering choice), capped at the full pair budget —
    exactly the work the exact incremental update would re-evaluate.
    Touched edges pay a full re-evaluation regardless.
    """
    arrays = analysis.arrays
    num_inputs = analysis.num_inputs
    num_outputs = analysis.num_outputs
    pair_budget = num_inputs * num_outputs
    if pair_budget == 0 or arrays.edge_source.size == 0:
        return 0.0
    row_hits = update.arrival_changed_counts()
    col_hits = update.to_output_changed_counts()
    rows_cnt = row_hits[arrays.edge_source].astype(float) + float(m_extra_rows)
    cols_cnt = col_hits[arrays.edge_sink].astype(float) + float(m_extra_cols)
    per_edge = np.minimum(
        rows_cnt * num_outputs + num_inputs * cols_cnt, float(pair_budget)
    )
    if update.touched_edges:
        touched = np.isin(arrays.edge_ids, np.asarray(update.touched_edges))
        per_edge[touched] = float(pair_budget)
    return float(per_edge.sum()) / float(pair_budget * arrays.edge_source.size)


def update_edge_criticalities(
    graph: TimingGraph,
    analysis: AllPairsTiming,
    previous: CriticalityResult,
    update: AllPairsUpdate,
) -> CriticalityResult:
    """Incrementally refreshed criticalities after one all-pairs update.

    ``c_ij`` of an edge depends on four inputs only: the per-input arrival
    row of its source, the per-output delay row of its sink, the edge's own
    delay, and the matrix entry ``M_ij``.  The change masks of an
    :class:`~repro.timing.allpairs.AllPairsUpdate` pin the moved inputs
    down to a *cross* of the pair space — a few changed input rows (the
    inputs that reach the edit) times all outputs, plus all inputs times a
    few changed output columns — so for every edge whose stored attaining
    pair lies outside that cross, the exact new maximum is
    ``max(stored_max, max over the recomputed cross)``: every untouched
    pair kept its old value, all of which were bounded by the stored
    maximum, whose own pair did not move.  Only edges whose attaining pair
    falls inside the cross (or whose delay itself was retimed) pay a full
    re-evaluation, which is what makes post-ECO re-extraction fast even
    when the matrix moves almost everywhere by round-off-sized amounts.

    **Dense-edit auto-switch**: before walking the edges the update's cross
    is sized against the full ``edges x pairs`` space
    (:func:`AllPairsUpdate.arrival_changed_counts`).  A mid-graph retime on
    a heavily reconvergent module moves the matrix almost everywhere, and
    once the estimated cross covers ``DENSE_EDIT_RECOMPUTE_FRACTION`` of
    the space the exact update is slower than simply recomputing everything
    with the batched kernels — so that is what happens (the returned
    result reports ``engine == "batch"``), guaranteeing a dense edit is
    never slower than a cold batched recompute.  On the incremental path,
    edges sharing a changed cross are re-evaluated together by restricted
    batched passes, and edges that need a full re-evaluation by one
    :func:`edge_criticality_batch` call.

    Results match :func:`compute_edge_criticalities` on the refreshed
    analysis to floating-point round-off (carried-over entries are
    bit-identical; a dense-edit switch *is* a from-scratch batched
    recompute, so it matches one exactly; the restricted cross passes
    contract sub-rectangles of the operands, which BLAS may block
    differently, so they agree to the ulp level).  A ``"full"`` update
    (or a ``previous`` without argmax bookkeeping) falls back to the full
    recompute.  ``analysis`` is checked as in
    :func:`compute_edge_criticalities`.

    The caller is responsible for continuity: ``previous`` must have been
    computed (or updated) against the session state *immediately before*
    ``update`` — :class:`repro.model.extraction.ExtractionSession` enforces
    this with the update serial.
    """
    _graph_arrays(graph, analysis.arrays, "analysis")
    _require_dense(analysis)
    if update.mode == "noop":
        return previous
    if (
        update.mode == "full"
        or update.arrival_changed is None
        or update.to_output_changed is None
        or previous.argmax_pairs is None
    ):
        return compute_edge_criticalities(graph, analysis)

    arrays = analysis.arrays
    arrival_changed = update.arrival_changed
    to_output_changed = update.to_output_changed
    num_inputs = analysis.num_inputs
    num_outputs = analysis.num_outputs

    # Matrix entry (i, j) is the arrival at output j's vertex from input i,
    # so the changed entries live inside changed-input-rows x changed-
    # output-columns; cover them with whichever side of the cross is
    # cheaper to re-evaluate across all edges.
    matrix_block = arrival_changed[arrays.output_rows]  # (O, I)
    m_rows_changed = matrix_block.any(axis=0)  # inputs appearing in changes
    m_cols_changed = matrix_block.any(axis=1)  # outputs whose column moved
    cover_m_with_rows = (
        int(m_rows_changed.sum()) * num_outputs
        <= num_inputs * int(m_cols_changed.sum())
    )
    m_has_changes = bool(m_cols_changed.any())

    m_extra_rows = (
        int(m_rows_changed.sum()) if cover_m_with_rows and m_has_changes else 0
    )
    m_extra_cols = (
        int(m_cols_changed.sum()) if not cover_m_with_rows and m_has_changes else 0
    )
    fraction = _estimated_cross_fraction(
        analysis, update, m_extra_rows, m_extra_cols
    )
    if fraction >= DENSE_EDIT_RECOMPUTE_FRACTION:
        # The edit moved the pair space almost everywhere: a from-scratch
        # batched recompute is cheaper than re-evaluating most of it
        # cross by cross.
        return compute_edge_criticalities(graph, analysis)

    a_any = arrival_changed.any(axis=1)  # per-vertex row summaries
    r_any = to_output_changed.any(axis=1)
    touched = set(update.touched_edges)
    pair_budget = num_inputs * num_outputs

    max_criticality: Dict[int, float] = {}
    argmax_pairs: Dict[int, Tuple[int, int]] = {}
    full_edges: List[TimingEdge] = []
    cross_groups: Dict[bytes, List[TimingEdge]] = {}
    cross_patterns: Dict[bytes, Tuple[np.ndarray, np.ndarray]] = {}
    for edge in graph.edges:
        edge_id = edge.edge_id
        row = arrays.edge_rows[edge_id]
        source_row = int(arrays.edge_source[row])
        sink_row = int(arrays.edge_sink[row])
        previous_value = previous.max_criticality.get(edge_id)
        previous_pair = previous.argmax_pairs.get(edge_id)

        clean = not (
            a_any[source_row] or r_any[sink_row] or m_has_changes
        ) and edge_id not in touched
        if clean and previous_value is not None and previous_pair is not None:
            max_criticality[edge_id] = previous_value
            argmax_pairs[edge_id] = previous_pair
            continue
        if edge_id in touched or previous_value is None or previous_pair is None:
            full_edges.append(edge)
            continue

        # The changed pairs of this edge lie inside rows x all + all x cols.
        dirty_rows = arrival_changed[source_row]
        if cover_m_with_rows and m_has_changes:
            dirty_rows = dirty_rows | m_rows_changed
        dirty_cols = to_output_changed[sink_row]
        if not cover_m_with_rows and m_has_changes:
            dirty_cols = dirty_cols | m_cols_changed

        best_i, best_j = previous_pair
        rows_idx = np.nonzero(dirty_rows)[0]
        cols_idx = np.nonzero(dirty_cols)[0]
        cost = rows_idx.size * num_outputs + num_inputs * cols_idx.size
        if (
            cost >= pair_budget
            or best_i < 0
            or dirty_rows[best_i]
            or dirty_cols[best_j]
        ):
            # No savings, or the attaining pair itself moved: the stored
            # maximum no longer bounds the untouched pairs.
            full_edges.append(edge)
            continue

        # Edges sharing a changed cross (typically everything outside the
        # edit's cone plus per-cone-level groups) are re-evaluated
        # together through the restricted batched kernel below.
        key = dirty_rows.tobytes() + dirty_cols.tobytes()
        group = cross_groups.setdefault(key, [])
        if not group:
            cross_patterns[key] = (rows_idx, cols_idx)
        group.append(edge)

    # Groups differing only on the other axis share a restriction (e.g. a
    # single-input cone leaves one dirty-rows pattern while dirty columns
    # vary per sink): build each restricted moments object once.
    rows_moments: Dict[bytes, _HoistedMoments] = {}
    cols_moments: Dict[bytes, _HoistedMoments] = {}
    for key, group in cross_groups.items():
        rows_idx, cols_idx = cross_patterns[key]
        group_rows = _edge_rows(analysis, group)
        seed_values = [previous.max_criticality[e.edge_id] for e in group]
        seed_pairs = [previous.argmax_pairs[e.edge_id] for e in group]
        if rows_idx.size:
            # Dirty input rows x all outputs, one batched pass — but only
            # for edges whose source is reachable from a dirty input at
            # all: everywhere else the cross evaluates to all zeros, which
            # the (non-negative) stored maximum already bounds.  On real
            # modules a single input's cone covers a small fraction of
            # the edges, so this filter is most of the sparse-edit win.
            reachable = analysis.arrival_valid[
                np.ix_(arrays.edge_source[group_rows], rows_idx)
            ].any(axis=1)
            positions = np.nonzero(reachable)[0]
            if positions.size:
                pattern = rows_idx.tobytes()
                moments = rows_moments.get(pattern)
                if moments is None:
                    moments = rows_moments.setdefault(
                        pattern, _matrix_moments(analysis, input_rows=rows_idx)
                    )
                values, best = _batched_edge_max(
                    analysis, group_rows[positions], moments,
                    criticality_chunk_pairs(),
                    _analysis_work(analysis, rows_idx.size, num_outputs),
                    input_rows=rows_idx,
                )
                for index, position in enumerate(positions):
                    if values[index] > seed_values[position]:
                        seed_values[position] = float(values[index])
                        flat = int(best[index])
                        seed_pairs[position] = (
                            int(rows_idx[flat // num_outputs]),
                            flat % num_outputs,
                        )
        if cols_idx.size:
            # All inputs x dirty output columns (the dirty rows are
            # evaluated twice — unchanged pairs re-evaluate to values
            # bounded by the stored maximum, so the strict merge stays
            # exact), filtered to the edges whose sink reaches a dirty
            # output.
            reaching = analysis.to_output_valid[
                np.ix_(arrays.edge_sink[group_rows], cols_idx)
            ].any(axis=1)
            positions = np.nonzero(reaching)[0]
            if positions.size:
                pattern = cols_idx.tobytes()
                moments = cols_moments.get(pattern)
                if moments is None:
                    moments = cols_moments.setdefault(
                        pattern, _matrix_moments(analysis, output_cols=cols_idx)
                    )
                values, best = _batched_edge_max(
                    analysis, group_rows[positions], moments,
                    criticality_chunk_pairs(),
                    _analysis_work(analysis, num_inputs, cols_idx.size),
                    output_cols=cols_idx,
                )
                for index, position in enumerate(positions):
                    if values[index] > seed_values[position]:
                        seed_values[position] = float(values[index])
                        flat = int(best[index])
                        seed_pairs[position] = (
                            flat // cols_idx.size,
                            int(cols_idx[flat % cols_idx.size]),
                        )
        for position, edge in enumerate(group):
            max_criticality[edge.edge_id] = seed_values[position]
            argmax_pairs[edge.edge_id] = seed_pairs[position]

    if full_edges:
        # Edges needing a full (I, O) re-evaluation go through the batched
        # kernel in one chunked pass.
        full_result = edge_criticality_batch(analysis, full_edges)
        max_criticality.update(full_result.max_criticality)
        argmax_pairs.update(full_result.argmax_pairs)
    return CriticalityResult(max_criticality, argmax_pairs, engine="incremental")
