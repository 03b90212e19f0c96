"""Statistical timing graphs and propagation engines.

The timing graph follows the paper's definition (Section II): a vertex per
pin/net, a directed edge per pin-to-pin delay, and edge weights that are
canonical linear forms.  All engines share the batched Clark kernels of
:mod:`repro.core.batch` and the structure-of-arrays view of
:mod:`repro.timing.arrays`: one-shot analyses take the graph and read its
shared view (:meth:`~repro.timing.arrays.GraphArrays.of`, one per graph
and revision), while sessions patch a private view in place.  The engines:

* :mod:`repro.timing.propagation` — block-based SSTA for module-level and
  design-level arrival/required/slack propagation: one batched
  levelized fold;
* :mod:`repro.timing.allpairs` — a vectorized engine that computes, for a
  module, the arrival times from *every* input, the path delays to *every*
  output and the all-pairs input/output delay matrix needed by the
  criticality-based model extraction;
* :mod:`repro.timing.sta` — a deterministic corner STA baseline that runs
  the levelized Monte Carlo longest-path kernel over the same array view;
* :mod:`repro.timing.incremental` — revisioned incremental analysis: the
  graph journals its mutations, a session's private
  :class:`~repro.timing.arrays.GraphArrays` view replays them, and an
  :class:`~repro.timing.incremental.IncrementalTimer` session repropagates
  only the dirty cone of each edit through the same per-level fold,
  serving rapid what-if queries.
"""

from repro.timing.graph import GraphChange, GraphDelta, TimingGraph, TimingEdge
from repro.timing.arrays import ArraysRefresh, GraphArrays
from repro.timing.builder import build_timing_graph
from repro.timing.incremental import IncrementalTimer, UpdateStats
from repro.timing.propagation import (
    VertexTimes,
    propagate_arrival_times,
    propagate_arrival_times_batch,
    propagate_required_times,
    propagate_required_times_batch,
    circuit_delay,
    compute_slacks,
    compute_slacks_batch,
)
from repro.timing.allpairs import AllPairsSession, AllPairsTiming, AllPairsUpdate
from repro.timing.paths import TimingPath, enumerate_critical_paths
from repro.timing.sta import CornerReport, corner_sta

__all__ = [
    "TimingGraph",
    "TimingEdge",
    "GraphChange",
    "GraphDelta",
    "GraphArrays",
    "ArraysRefresh",
    "IncrementalTimer",
    "UpdateStats",
    "build_timing_graph",
    "VertexTimes",
    "propagate_arrival_times",
    "propagate_arrival_times_batch",
    "propagate_required_times",
    "propagate_required_times_batch",
    "circuit_delay",
    "compute_slacks",
    "compute_slacks_batch",
    "AllPairsSession",
    "AllPairsTiming",
    "AllPairsUpdate",
    "TimingPath",
    "enumerate_critical_paths",
    "CornerReport",
    "corner_sta",
]
