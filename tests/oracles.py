"""Test-only reference implementations (oracles).

The library runs one production kernel per analysis.  These are the
plain implementations that the parity tests compare those kernels
against; nothing in ``src/`` calls them.

* :func:`edge_criticality_matrix` — the one-edge-at-a-time scalar
  criticality of every input/output pair, against which the batched
  kernel of :mod:`repro.model.criticality` is checked (to 1e-9);
* :func:`edge_criticality_tensor` — the batched kernel's pair tensors
  of several edges, materialised as one ``(E, I, O)`` array;
* :func:`_longest_paths_object` — the per-vertex Monte Carlo longest-path
  loop, bit-identical to the levelized kernels of
  :mod:`repro.montecarlo.flat`;
* :func:`_reference_fold` — the object-level SSTA fold over immutable
  canonical forms, against which :mod:`repro.timing.propagation` is
  checked (to 1e-9);
* :func:`merge_max_with_validity` — the allocating masked Clark max,
  bitwise equal to :func:`~repro.core.batch.merge_max_with_validity_into`.

Test modules import them as ``from oracles import ...``: ``tests/`` is on
``sys.path`` once pytest has loaded ``tests/conftest.py``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.core.batch import clark_max_arrays, tightness_from_moments
from repro.core.canonical import CanonicalForm
from repro.core.gaussian import normal_cdf
from repro.core.ops import statistical_max
from repro.model.criticality import (
    _MEAN_EPSILON,
    THETA_RELATIVE_EPSILON,
    _chunk_terms,
    _edge_rows,
    _matrix_moments,
    _require_to_output,
)
from repro.montecarlo.flat import _NEG_INF
from repro.timing.allpairs import AllPairsTiming
from repro.timing.arrays import GraphArrays
from repro.timing.graph import TimingEdge, TimingGraph


def edge_criticality_matrix(
    analysis: AllPairsTiming, edge: TimingEdge
) -> np.ndarray:
    """Criticality ``c_ij`` of one edge for every input/output pair.

    Returns an ``(I, O)`` array; pairs with no path through the edge (or no
    path at all) have criticality 0.  This is the scalar reference the
    batched kernel is verified against, to 1e-9: BLAS blocks the two
    kernels' contractions differently.
    """
    _require_to_output(analysis)
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
    _require_to_output(analysis)
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


def _longest_paths_object(
    arrays: GraphArrays,
    delays: np.ndarray,
    source_rows: np.ndarray,
) -> np.ndarray:
    """Per-sample longest paths: the original per-vertex reference loop.

    Returns a ``(V, num_samples)`` matrix; vertices unreachable from every
    source hold ``-inf``.
    """
    graph = arrays.graph
    index = arrays.vertex_index
    num_samples = delays.shape[1]
    arrivals = np.full((graph.num_vertices, num_samples), _NEG_INF)
    arrivals[source_rows] = 0.0

    for vertex in arrays.topo_order:
        vertex_row = index[vertex]
        for edge in graph.fanin_edges(vertex):
            edge_row = arrays.edge_rows[edge.edge_id]
            source_row = arrays.edge_source[edge_row]
            source_arrival = arrivals[source_row]
            candidate = source_arrival + delays[edge_row]
            np.maximum(arrivals[vertex_row], candidate, out=arrivals[vertex_row])
    return arrivals


def _reference_fold(
    graph: TimingGraph,
    seeds: Mapping[str, CanonicalForm],
    backward: bool = False,
) -> Dict[str, CanonicalForm]:
    """The object-level per-edge loop over immutable canonical forms.

    Kept only as the oracle the levelized fold is tested against;
    nothing in the library calls it.  Forward, ``seeds`` are the
    input arrivals and each vertex folds its fanin candidates
    ``source + delay`` with :func:`~repro.core.ops.statistical_max`, then
    its own seed.  Backward, ``seeds`` sit at the outputs and each vertex
    folds its seed first, then its fanout candidates ``sink + delay`` —
    the delay to the outputs, or the negated required times when the seeds
    are negated required times.  Non-finite seeds follow the scalar
    operators' algebra (``minus_infinity`` is the identity of ``max``).
    Vertices no seed reaches get no entry.
    """
    times: Dict[str, CanonicalForm] = dict(seeds)
    order = graph.topological_order()
    for vertex in (reversed(order) if backward else order):
        edges = graph.fanout_edges(vertex) if backward else graph.fanin_edges(vertex)
        if not edges:
            continue
        best: Optional[CanonicalForm] = times.get(vertex) if backward else None
        for edge in edges:
            neighbor = times.get(edge.sink if backward else edge.source)
            if neighbor is None:
                continue
            candidate = neighbor.add(edge.delay)
            best = candidate if best is None else statistical_max(best, candidate)
        if best is None:
            continue
        if not backward and vertex in times:
            best = statistical_max(best, times[vertex])
        times[vertex] = best
    return times


def merge_max_with_validity(
    mean_a: np.ndarray,
    corr_a: np.ndarray,
    randvar_a: np.ndarray,
    valid_a: np.ndarray,
    mean_b: np.ndarray,
    corr_b: np.ndarray,
    randvar_b: np.ndarray,
    valid_b: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Clark max that honours per-entry validity masks.

    Entries valid on only one side copy that side; entries valid on neither
    side stay invalid (their numeric content is meaningless).
    """
    mean, corr, randvar = clark_max_arrays(
        mean_a, corr_a, randvar_a, mean_b, corr_b, randvar_b
    )
    if valid_a.all() and valid_b.all():
        # Fast path for the common fully-reachable case: no masking needed.
        return mean, corr, randvar, valid_a | valid_b
    both = valid_a & valid_b
    only_a = valid_a & ~valid_b

    out_mean = np.where(both, mean, np.where(only_a, mean_a, mean_b))
    out_randvar = np.where(both, randvar, np.where(only_a, randvar_a, randvar_b))
    both_e = both[..., np.newaxis]
    only_a_e = only_a[..., np.newaxis]
    out_corr = np.where(both_e, corr, np.where(only_a_e, corr_a, corr_b))
    out_valid = valid_a | valid_b
    return out_mean, out_corr, out_randvar, out_valid
