"""The gray-box statistical timing model container.

A :class:`TimingModel` packages the reduced timing graph with everything a
design-level analysis needs to instantiate the module:

* the module's grid partition, spatial-correlation profile and PCA
  decomposition (so the independent random variables of its edge delays can
  be replaced at design level, Section V);
* the module die outline (for floorplanning);
* the extraction statistics reported in Table I.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.timing.allpairs import AllPairsTiming
from repro.timing.graph import TimingGraph
from repro.variation.grid import Die, GridPartition
from repro.variation.model import VariationModel
from repro.variation.pca import PCADecomposition
from repro.variation.spatial import SpatialCorrelation

__all__ = ["ExtractionStats", "TimingModel"]


@dataclass(frozen=True)
class ExtractionStats:
    """Size and runtime statistics of one model extraction (Table I row).

    ``extraction_seconds`` is a measured wall-clock duration
    (``time.perf_counter`` based): it is informational only and excluded
    from equality — two extractions of the same module at the same
    threshold compare equal even though their runtimes differ, which keeps
    model round-trip comparisons (serialize, reload, compare) deterministic.
    It is likewise not serialized (see :mod:`repro.model.serialization`).
    """

    original_edges: int
    original_vertices: int
    model_edges: int
    model_vertices: int
    removed_edges: int
    threshold: float
    extraction_seconds: float = field(default=0.0, compare=False)

    @property
    def edge_ratio(self) -> float:
        """``p_e`` of Table I: model edges over original edges."""
        if self.original_edges == 0:
            return 0.0
        return self.model_edges / self.original_edges

    @property
    def vertex_ratio(self) -> float:
        """``p_v`` of Table I: model vertices over original vertices."""
        if self.original_vertices == 0:
            return 0.0
        return self.model_vertices / self.original_vertices


class TimingModel:
    """A pre-characterized statistical timing model of a combinational module."""

    def __init__(
        self,
        name: str,
        graph: TimingGraph,
        variation: VariationModel,
        stats: ExtractionStats,
    ) -> None:
        self._name = name
        self._graph = graph
        self._variation = variation
        self._stats = stats
        self._analysis: Optional[AllPairsTiming] = None

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Module name."""
        return self._name

    @property
    def graph(self) -> TimingGraph:
        """The reduced timing graph of the model."""
        return self._graph

    @property
    def variation(self) -> VariationModel:
        """The variation model the edge delays are expressed in."""
        return self._variation

    @property
    def stats(self) -> ExtractionStats:
        """Extraction statistics (sizes, threshold, runtime)."""
        return self._stats

    @property
    def inputs(self) -> Tuple[str, ...]:
        """Module input pins."""
        return self._graph.inputs

    @property
    def outputs(self) -> Tuple[str, ...]:
        """Module output pins."""
        return self._graph.outputs

    @property
    def partition(self) -> GridPartition:
        """Grid partition used during characterization."""
        return self._variation.partition

    @property
    def pca(self) -> PCADecomposition:
        """PCA decomposition of the module's correlated grid variables."""
        return self._variation.pca

    @property
    def correlation(self) -> SpatialCorrelation:
        """Spatial correlation profile used during characterization."""
        return self._variation.correlation

    @property
    def die(self) -> Die:
        """Module die outline."""
        return self._variation.partition.die

    @property
    def num_locals(self) -> int:
        """Dimension of the module-local independent variable space."""
        return self._graph.num_locals

    # ------------------------------------------------------------------
    def analysis(self) -> AllPairsTiming:
        """All-pairs analysis of the *model* graph (cached until it is edited)."""
        analysis = self._analysis
        if analysis is None or analysis.arrays.revision != self._graph.revision:
            analysis = self._analysis = AllPairsTiming.analyze(self._graph)
        return analysis

    def delay_matrix_means(self) -> np.ndarray:
        """Mean input/output delay matrix of the model (NaN where no path)."""
        return self.analysis().matrix_means()

    def delay_matrix_stds(self) -> np.ndarray:
        """Standard deviations of the model's input/output delays."""
        return self.analysis().matrix_std()

    def instantiate(self, prefix: str) -> TimingGraph:
        """A copy of the model graph with every vertex renamed ``prefix + name``.

        Edge delays are shared (they are immutable canonical forms); the
        hierarchical analysis replaces them when it remaps the independent
        variables.
        """
        clone = TimingGraph("%s%s" % (prefix, self._name), self._graph.num_locals)
        for vertex in self._graph.vertices:
            clone.add_vertex(prefix + vertex)
        for vertex in self._graph.inputs:
            clone.mark_input(prefix + vertex)
        for vertex in self._graph.outputs:
            clone.mark_output(prefix + vertex)
        for edge in self._graph.edges:
            clone.add_edge(prefix + edge.source, prefix + edge.sink, edge.delay)
        return clone

    def __repr__(self) -> str:
        return "TimingModel(%r, edges=%d/%d, vertices=%d/%d)" % (
            self._name,
            self._stats.model_edges,
            self._stats.original_edges,
            self._stats.model_vertices,
            self._stats.original_vertices,
        )
