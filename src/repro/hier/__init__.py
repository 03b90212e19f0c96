"""Hierarchical statistical timing analysis at design level (Section V).

A hierarchical design instantiates pre-characterized timing models at fixed
die locations and connects their ports.  The analysis proceeds in the four
steps of Fig. 5:

1. partition the design die with *heterogeneous grids* (module-covered
   areas keep the module's own grids, the rest uses the default grid size);
2. decompose the design-level correlated grid variables with PCA;
3. replace the independent random variables of every instantiated model
   (eq. 19) so spatial correlation between modules is restored: one basis
   map per instance, applied to each model edge as it is added, once, to
   the design graph (Fig. 7's "global only" baseline maps each instance
   onto a private block of locals instead);
4. propagate arrival times from the design's primary inputs to its primary
   outputs through the design graph.

:class:`DesignTimer` swaps one instance's model in place through the same map.
"""

from repro.hier.design import HierarchicalDesign, ModuleInstance, Connection
from repro.hier.grids import DesignGrids, build_design_grids
from repro.hier.replacement import replacement_matrix, design_pca
from repro.hier.analysis import (
    DesignTimer,
    HierarchicalResult,
    analyze_hierarchical_design,
    CorrelationMode,
)

__all__ = [
    "HierarchicalDesign",
    "ModuleInstance",
    "Connection",
    "DesignGrids",
    "build_design_grids",
    "replacement_matrix",
    "design_pca",
    "DesignTimer",
    "HierarchicalResult",
    "analyze_hierarchical_design",
    "CorrelationMode",
]
