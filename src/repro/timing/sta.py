"""Deterministic corner static timing analysis baseline.

The paper motivates SSTA with the pessimism of corner-based STA: evaluating
every delay at its worst-case corner overestimates the achievable clock
frequency headroom.  :func:`corner_sta` runs the classic longest-path
analysis at the nominal, worst (+n sigma) and best (-n sigma) corners of a
statistical timing graph so examples and benchmarks can quantify that
pessimism against the SSTA distribution.

The longest-path recursion runs on the shared
:class:`~repro.timing.arrays.GraphArrays` view with its levelized schedule:
per-edge corner delays are computed in one vectorized expression
(``mean + sigma_offset * std`` straight from the edge coefficient arrays)
and each level folds with plain ``np.maximum`` — the deterministic
degenerate case of the batched Clark engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import TimingGraphError
from repro.timing.arrays import GraphArrays, _graph_arrays
from repro.timing.graph import TimingGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.timing.incremental import IncrementalTimer

__all__ = [
    "CornerReport",
    "corner_sta",
    "corner_sta_parallel",
    "corner_sweep",
    "deterministic_longest_path",
    "longest_path_from_arrays",
]


@dataclass(frozen=True)
class CornerReport:
    """Longest-path delays of a timing graph at three deterministic corners."""

    nominal: float
    worst: float
    best: float
    sigma_corner: float

    @property
    def pessimism(self) -> float:
        """Worst-corner delay divided by the nominal delay."""
        if self.nominal == 0.0:
            return float("inf")
        return self.worst / self.nominal

    @property
    def spread(self) -> float:
        """Worst-minus-best delay window."""
        return self.worst - self.best


def longest_path_from_arrays(arrays: GraphArrays, sigma_offset: float = 0.0) -> float:
    """Longest input-to-output path of an array view at one sigma corner.

    The graph-free corner kernel: everything it reads lives on the
    :class:`GraphArrays` (or a shared-memory
    :class:`~repro.parallel.shm.SnapshotArrays`), which is what lets the
    sharded executor evaluate corners in worker processes that never see
    the graph object.
    """
    edge_delay = arrays.edge_mean + sigma_offset * np.sqrt(
        np.einsum("ek,ek->e", arrays.edge_corr, arrays.edge_corr)
        + arrays.edge_randvar
    )

    arrival = np.full(arrays.num_vertices, -np.inf)
    arrival[arrays.input_rows] = 0.0
    for level in arrays.forward_levels():
        rows = level.vertex_rows
        acc = arrival[rows]
        for round_index in range(level.edge_matrix.shape[1]):
            count = level.round_counts[round_index]
            edge_rows = level.edge_matrix[:count, round_index]
            candidate = arrival[arrays.edge_source[edge_rows]] + edge_delay[edge_rows]
            np.maximum(acc[:count], candidate, out=acc[:count])
        arrival[rows] = acc

    output_rows = arrays.output_rows
    best = float(arrival[output_rows].max()) if output_rows.size else -np.inf
    if not np.isfinite(best):
        raise TimingGraphError(
            "no output of %r is reachable from any input" % arrays.graph.name
        )
    return best


def deterministic_longest_path(
    graph: TimingGraph,
    sigma_offset: float = 0.0,
    arrays: Optional[GraphArrays] = None,
) -> float:
    """Longest input-to-output path with every delay at ``mean + sigma_offset * std``.

    ``arrays`` may be passed to reuse a previously built array view (e.g.
    across the three corners of :func:`corner_sta`); arrays of another
    graph or of an older revision raise
    :class:`~repro.errors.TimingGraphError`.
    """
    return longest_path_from_arrays(_graph_arrays(graph, arrays), sigma_offset)


def _corner_arrays(
    graph: Optional[TimingGraph], timer: Optional["IncrementalTimer"]
) -> GraphArrays:
    """The (shared) array view a corner analysis runs on."""
    if timer is not None:
        if graph is not None and graph is not timer.graph:
            raise TimingGraphError(
                "corner analysis was given both a graph and a session "
                "attached to a different graph"
            )
        # Structure-only sync: replays the journal into the array cache but
        # leaves the session's statistical dirty cones pending (corner STA
        # never reads them).
        timer.sync()
        return timer.arrays
    if graph is None:
        raise TimingGraphError("corner analysis needs a graph or a timer session")
    return GraphArrays.from_graph(graph)


def corner_sweep(
    sigma_offsets,
    graph: Optional[TimingGraph] = None,
    timer: Optional["IncrementalTimer"] = None,
    workers: Optional[int] = None,
    executor=None,
) -> np.ndarray:
    """Longest-path delays at every requested sigma offset, in order.

    The array view is built (or synchronised from ``timer``) once and
    shared by every corner.  ``workers`` (or ``REPRO_WORKERS``, or an
    explicit ``executor``) shards the corners one-per-task across the
    process pool over a shared-memory snapshot; each corner is a single
    deterministic evaluation, so the sharded sweep is bit-identical to the
    serial one.  A sharded run's recovery record (retries, respawns,
    degradations) is available afterwards on ``executor.last_report``.
    """
    from repro.parallel.pool import maybe_executor

    arrays = _corner_arrays(graph, timer)
    offsets = [float(offset) for offset in sigma_offsets]
    executor = maybe_executor(workers, executor)
    if executor is not None and executor.engine == "process":
        return np.asarray(executor.run("corner_delay", offsets, arrays))
    return np.asarray(
        [longest_path_from_arrays(arrays, offset) for offset in offsets]
    )


def corner_sta(
    graph: Optional[TimingGraph] = None,
    sigma_corner: float = 3.0,
    timer: Optional["IncrementalTimer"] = None,
) -> CornerReport:
    """Run nominal / worst / best corner analysis on a statistical graph.

    The corners shift every edge independently by ``+/- sigma_corner``
    standard deviations, which is exactly the per-edge worst-casing that
    makes corner STA pessimistic compared with the statistical maximum.
    The graph is converted to arrays once and shared by the three corners.

    Pass ``timer`` (an :class:`~repro.timing.incremental.IncrementalTimer`
    session) instead of — or along with — ``graph`` to reuse the session's
    incrementally maintained array view: the session synchronises with the
    graph's change journal and the corner analysis pays no per-call
    graph-to-array conversion.
    """
    if sigma_corner < 0.0:
        raise ValueError("sigma_corner must be non-negative")
    arrays = _corner_arrays(graph, timer)
    return CornerReport(
        nominal=longest_path_from_arrays(arrays, 0.0),
        worst=longest_path_from_arrays(arrays, sigma_corner),
        best=longest_path_from_arrays(arrays, -sigma_corner),
        sigma_corner=sigma_corner,
    )


def corner_sta_parallel(
    graph: Optional[TimingGraph] = None,
    sigma_corner: float = 3.0,
    timer: Optional["IncrementalTimer"] = None,
    workers: Optional[int] = None,
    executor=None,
) -> CornerReport:
    """:func:`corner_sta` with the three corners sharded across workers.

    Identical results to :func:`corner_sta` (each corner is one exact
    deterministic evaluation); the pool only pays off when the per-corner
    propagation dominates the task round-trip — large graphs, or wider
    sweeps via :func:`corner_sweep`.  Falls back to the serial sweep when
    the executor resolves to the serial engine.
    """
    if sigma_corner < 0.0:
        raise ValueError("sigma_corner must be non-negative")
    nominal, worst, best = corner_sweep(
        [0.0, sigma_corner, -sigma_corner],
        graph=graph,
        timer=timer,
        workers=workers,
        executor=executor,
    )
    return CornerReport(
        nominal=float(nominal),
        worst=float(worst),
        best=float(best),
        sigma_corner=sigma_corner,
    )
