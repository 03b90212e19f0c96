"""The complete gray-box timing-model extraction pipeline (Fig. 3).

``extract_timing_model`` runs the three steps of the paper on a module's
statistical timing graph:

1. compute the maximum criticality of every edge over all input/output
   pairs;
2. remove edges below the criticality threshold ``delta`` (0.05 in the
   paper's experiments);
3. iterate serial and parallel merges (plus pruning of vertices that can no
   longer reach an output) to a fixpoint.

Two usage modes share the implementation:

* one-shot — ``extract_timing_model(graph, variation, delta)`` computes
  everything from scratch, as in the paper;
* session-driven — an :class:`ExtractionSession` keeps an incremental
  :class:`~repro.timing.allpairs.AllPairsSession` plus a cached criticality
  map attached to the module graph, so threshold sweeps and re-extraction
  after ECO edits (retimes, edge surgery) only repropagate the dirty cone
  of the all-pairs tensors and re-evaluate the criticalities that actually
  moved.  ``extract_timing_model(session=...)`` and
  :func:`sweep_thresholds` route through it.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from repro.errors import ModelExtractionError
from repro.model.criticality import (
    CriticalityResult,
    compute_edge_criticalities,
    update_edge_criticalities,
)
from repro.model.reduction import reduce_graph
from repro.model.timing_model import ExtractionStats, TimingModel
from repro.timing.allpairs import AllPairsSession, AllPairsTiming, AllPairsUpdate
from repro.timing.graph import TimingGraph
from repro.variation.model import VariationModel

__all__ = ["DEFAULT_CRITICALITY_THRESHOLD", "ExtractionSession", "extract_timing_model", "sweep_thresholds"]

DEFAULT_CRITICALITY_THRESHOLD = 0.05


def _validate_module(graph: TimingGraph, variation: VariationModel) -> None:
    if not graph.inputs or not graph.outputs:
        raise ModelExtractionError(
            "module %r needs designated inputs and outputs" % graph.name
        )
    if graph.num_locals != variation.num_locals:
        raise ModelExtractionError(
            "graph has %d local components but the variation model has %d"
            % (graph.num_locals, variation.num_locals)
        )


def _validate_threshold(threshold: float) -> None:
    if not 0.0 <= threshold < 1.0:
        raise ModelExtractionError("threshold must lie in [0, 1)")


def _reduce_to_model(
    graph: TimingGraph,
    variation: VariationModel,
    threshold: float,
    criticalities: CriticalityResult,
    name: Optional[str],
    start: float,
) -> TimingModel:
    """Steps 2 and 3 of the pipeline: threshold, merge, package the model."""
    original_edges = graph.num_edges
    original_vertices = graph.num_vertices

    reduced = graph.copy()
    removable = criticalities.below(threshold)
    # copy() preserves edge ids, so the criticality map addresses the
    # copied edges directly; the removals (and the merge cascade below)
    # coalesce in the copy's change journal into one incremental window.
    for edge_id in removable:
        reduced.remove_edge(reduced.edge(edge_id))
    removed_edges = len(removable)

    reduce_graph(reduced)
    elapsed = time.perf_counter() - start

    stats = ExtractionStats(
        original_edges=original_edges,
        original_vertices=original_vertices,
        model_edges=reduced.num_edges,
        model_vertices=reduced.num_vertices,
        removed_edges=removed_edges,
        threshold=threshold,
        extraction_seconds=elapsed,
    )
    return TimingModel(name or graph.name, reduced, variation, stats)


class ExtractionSession:
    """An incremental model-extraction pipeline attached to one module graph.

    The session owns an :class:`~repro.timing.allpairs.AllPairsSession`
    (the per-input arrival / per-output delay tensors, refreshed from the
    graph's change journal) and a criticality map cached against it.  Each
    :meth:`refresh` repropagates only the dirty cone of the tensors and
    re-evaluates only the edges whose all-pairs slack moved; results are
    identical (to floating-point round-off) to a from-scratch pipeline run.

    Lifecycle: attach (construct) → edit the graph freely → :meth:`extract`
    (which refreshes lazily) → edit again → re-extract.  Threshold sweeps
    ride on the same cache: after the first :meth:`extract` the remaining
    thresholds pay only the copy-and-merge tail of the pipeline.
    """

    def __init__(
        self,
        graph: TimingGraph,
        variation: VariationModel,
        name: Optional[str] = None,
    ) -> None:
        _validate_module(graph, variation)
        self._graph = graph
        self._variation = variation
        self._name = name
        self._allpairs = AllPairsSession(graph)
        self._criticalities = compute_edge_criticalities(
            graph, self._allpairs.state
        )
        self._serial = self._allpairs.serial
        # Why a warm start fell back to a cold rebuild (None for cold
        # sessions and for genuinely warm loads); set by repro.store.
        self.store_fallback_reason: Optional[str] = None

    @classmethod
    def from_snapshot(
        cls,
        graph: TimingGraph,
        variation: VariationModel,
        allpairs: AllPairsSession,
        criticalities: CriticalityResult,
        serial: int,
        name: Optional[str] = None,
    ) -> "ExtractionSession":
        """Reattach a session from restored state without recomputing.

        ``allpairs`` must already be attached to ``graph`` (see
        ``repro.store``); ``serial`` is the all-pairs serial the stored
        criticality map was synchronised at, so the next :meth:`refresh`
        knows whether an incremental criticality update is sound.
        """
        _validate_module(graph, variation)
        session = cls.__new__(cls)
        session._graph = graph
        session._variation = variation
        session._name = name
        session._allpairs = allpairs
        session._criticalities = criticalities
        session._serial = int(serial)
        session.store_fallback_reason = None
        return session

    def save(self, path):
        """Persist this session as one columnar store entry; returns the path.

        Convenience wrapper over :func:`repro.store.save_extraction_session`.
        """
        from repro.store import save_extraction_session

        return save_extraction_session(self, path)

    @classmethod
    def load(cls, path, graph=None, on_overflow="error") -> "ExtractionSession":
        """Warm-start a session from a store entry.

        Convenience wrapper over :func:`repro.store.load_extraction_session`;
        see there for the ``graph``/``on_overflow`` semantics.
        """
        from repro.store import load_extraction_session

        return load_extraction_session(path, graph=graph, on_overflow=on_overflow)

    # ------------------------------------------------------------------
    @property
    def graph(self) -> TimingGraph:
        """The module graph this session extracts from."""
        return self._graph

    @property
    def variation(self) -> VariationModel:
        """The variation model stored into extracted models."""
        return self._variation

    @property
    def allpairs(self) -> AllPairsSession:
        """The underlying incremental all-pairs session."""
        return self._allpairs

    @property
    def analysis(self) -> AllPairsTiming:
        """The synchronised all-pairs analysis of the module graph."""
        self.refresh()
        return self._allpairs.state

    @property
    def criticalities(self) -> CriticalityResult:
        """The synchronised per-edge maximum criticalities."""
        self.refresh()
        return self._criticalities

    # ------------------------------------------------------------------
    def refresh(self) -> AllPairsUpdate:
        """Synchronise tensors and criticalities with the graph revision.

        One coalesced journal window per call: an arbitrarily long edit
        burst between refreshes costs one dirty-cone repropagation plus a
        criticality re-evaluation restricted to the moved edges.
        """
        update = self._allpairs.refresh()
        if update.serial == self._serial:
            return update  # nothing happened since the criticality sync
        if update.serial == self._serial + 1 and update.mode == "incremental":
            self._criticalities = update_edge_criticalities(
                self._graph, self._allpairs.state, self._criticalities, update
            )
        else:
            # A full pass, or updates this session did not observe (someone
            # else refreshed the shared all-pairs session): the change
            # masks no longer describe everything since our last sync.
            self._criticalities = compute_edge_criticalities(
                self._graph, self._allpairs.state
            )
        self._serial = update.serial
        return update

    def extract(
        self, threshold: float = DEFAULT_CRITICALITY_THRESHOLD,
        name: Optional[str] = None,
    ) -> TimingModel:
        """Extract the timing model at ``threshold`` (incrementally warm)."""
        _validate_threshold(threshold)
        start = time.perf_counter()
        self.refresh()
        return _reduce_to_model(
            self._graph, self._variation, threshold, self._criticalities,
            name or self._name, start,
        )

    def __repr__(self) -> str:
        return "ExtractionSession(%r, revision=%d, edges=%d)" % (
            self._graph.name,
            self._allpairs.revision,
            self._graph.num_edges,
        )


def extract_timing_model(
    graph: TimingGraph,
    variation: VariationModel,
    threshold: float = DEFAULT_CRITICALITY_THRESHOLD,
    analysis: Optional[AllPairsTiming] = None,
    criticalities: Optional[CriticalityResult] = None,
    name: Optional[str] = None,
    session: Optional[ExtractionSession] = None,
) -> TimingModel:
    """Extract the gray-box statistical timing model of a module.

    Parameters
    ----------
    graph:
        The module's full statistical timing graph (one vertex per net, one
        edge per pin-to-pin delay).
    variation:
        The variation model the graph was built with; it is stored in the
        model so design-level analysis can replace the independent
        variables.
    threshold:
        Criticality threshold ``delta``; edges whose maximum criticality is
        below it are removed.  ``0`` keeps every edge (pure merge-based
        reduction).
    analysis, criticalities:
        Optional precomputed intermediate results, reused when provided
        (e.g. when sweeping thresholds in the ablation experiments).
    name:
        Model name; defaults to the graph name.
    session:
        Optional :class:`ExtractionSession` attached to ``graph``: the
        pipeline then reuses the session's incrementally maintained
        all-pairs tensors and criticality cache instead of recomputing
        them, which is what makes repeated extraction (threshold sweeps,
        post-ECO re-extraction) fast.  Mutually exclusive with
        ``analysis``/``criticalities``.

    Raises
    ------
    ModelExtractionError
        If the graph has no inputs or outputs, if the threshold is not in
        ``[0, 1)``, or if ``session`` is attached to a different graph.
    """
    _validate_module(graph, variation)
    _validate_threshold(threshold)

    if session is not None:
        if analysis is not None or criticalities is not None:
            raise ModelExtractionError(
                "session= is mutually exclusive with analysis=/criticalities="
            )
        if session.graph is not graph:
            raise ModelExtractionError(
                "the extraction session is attached to a different graph"
            )
        if session.variation is not variation:
            raise ModelExtractionError(
                "the extraction session was built with a different variation "
                "model (rebuild the session after recharacterizing)"
            )
        return session.extract(threshold, name=name)

    start = time.perf_counter()
    if criticalities is None:
        if analysis is None:
            analysis = AllPairsTiming.analyze(graph)
        criticalities = compute_edge_criticalities(graph, analysis)
    return _reduce_to_model(
        graph, variation, threshold, criticalities, name, start
    )


def sweep_thresholds(
    graph: TimingGraph,
    variation: VariationModel,
    thresholds: Sequence[float],
    session: Optional[ExtractionSession] = None,
    name: Optional[str] = None,
) -> List[TimingModel]:
    """Extract one model per threshold through a shared incremental session.

    The all-pairs tensors and the criticality map are computed once (or
    refreshed incrementally when ``session`` is supplied and the graph was
    edited); every threshold then pays only the copy-and-merge tail of the
    pipeline.  Models are returned in the order of ``thresholds`` and are
    identical to independent from-scratch extractions.
    """
    if session is None:
        session = ExtractionSession(graph, variation, name=name)
    elif session.graph is not graph:
        raise ModelExtractionError(
            "the extraction session is attached to a different graph"
        )
    elif session.variation is not variation:
        raise ModelExtractionError(
            "the extraction session was built with a different variation "
            "model (rebuild the session after recharacterizing)"
        )
    return [session.extract(threshold, name=name) for threshold in thresholds]
