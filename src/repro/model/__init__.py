"""Gray-box statistical timing-model extraction (Section IV of the paper).

The extraction pipeline is Fig. 3 of the paper:

1. compute the maximum criticality ``c_m`` of every edge over all
   input/output pairs (:mod:`repro.model.criticality`);
2. remove edges whose ``c_m`` is below the threshold ``delta``;
3. apply serial and parallel merge operations iteratively
   (:mod:`repro.model.reduction`).

The result is a :class:`~repro.model.timing_model.TimingModel`: a much
smaller timing graph with (approximately) the same statistical input/output
delays, plus the variation metadata needed to re-instantiate the model
inside a hierarchical design.
"""

from repro.model.criticality import (
    CriticalityResult,
    compute_edge_criticalities,
    edge_criticality_batch,
    edge_criticality_matrix,
    edge_criticality_tensor,
    update_edge_criticalities,
)
from repro.model.reduction import (
    parallel_merge,
    serial_merge,
    prune_unreachable,
    reduce_graph,
)
from repro.model.timing_model import TimingModel, ExtractionStats
from repro.model.extraction import (
    DEFAULT_CRITICALITY_THRESHOLD,
    ExtractionSession,
    extract_timing_model,
    sweep_thresholds,
)
from repro.model.serialization import (
    criticality_from_dict,
    criticality_to_dict,
    load_criticality,
    load_timing_model,
    save_criticality,
    save_timing_model,
    timing_model_from_dict,
    timing_model_to_dict,
)

__all__ = [
    "CriticalityResult",
    "compute_edge_criticalities",
    "edge_criticality_batch",
    "edge_criticality_matrix",
    "edge_criticality_tensor",
    "update_edge_criticalities",
    "DEFAULT_CRITICALITY_THRESHOLD",
    "ExtractionSession",
    "sweep_thresholds",
    "serial_merge",
    "parallel_merge",
    "prune_unreachable",
    "reduce_graph",
    "TimingModel",
    "ExtractionStats",
    "extract_timing_model",
    "save_timing_model",
    "load_timing_model",
    "timing_model_to_dict",
    "timing_model_from_dict",
    "save_criticality",
    "load_criticality",
    "criticality_to_dict",
    "criticality_from_dict",
]
