"""Design-level hierarchical statistical timing analysis (Fig. 5).

``analyze_hierarchical_design`` assembles a design-level timing graph from
the instantiated (and variable-replaced) module models plus the design
connections, then propagates arrival times from the design's primary inputs
to its primary outputs with the block-based SSTA engine.

Two correlation modes are provided:

* ``CorrelationMode.REPLACEMENT`` — the paper's proposed method: local
  variables of every module are rewritten in the shared design-level basis
  (eq. 19), so correlation from both global and local variation is
  captured;
* ``CorrelationMode.GLOBAL_ONLY`` — the comparison baseline of Fig. 7:
  modules only share the global variable, their local variables are treated
  as independent between modules.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.canonical import CanonicalForm
from repro.errors import HierarchyError
from repro.hier.design import HierarchicalDesign, ModuleInstance
from repro.hier.grids import DesignGrids, build_design_grids
from repro.hier.replacement import design_pca, replacement_matrix
from repro.model.extraction import (
    DEFAULT_CRITICALITY_THRESHOLD,
    ExtractionSession,
)
from repro.model.timing_model import TimingModel
from repro.variation.model import VariationModel
from repro.netlist.netlist import Netlist
from repro.placement.placer import Placement
from repro.timing.graph import TimingGraph
from repro.timing.incremental import IncrementalTimer
from repro.timing.propagation import propagate_arrival_times_batch
from repro.variation.pca import PCADecomposition
from repro.variation.spatial import SpatialCorrelation

__all__ = [
    "CorrelationMode",
    "DesignTimer",
    "HierarchicalResult",
    "analyze_hierarchical_design",
    "build_design_graph",
]


class CorrelationMode(enum.Enum):
    """How inter-module correlation is handled at design level."""

    REPLACEMENT = "replacement"
    GLOBAL_ONLY = "global_only"


@dataclass
class HierarchicalResult:
    """Result of one design-level analysis run."""

    design_name: str
    mode: CorrelationMode
    graph: TimingGraph
    output_arrivals: Dict[str, CanonicalForm]
    circuit_delay: CanonicalForm
    grids: Optional[DesignGrids]
    pca: Optional[PCADecomposition]
    analysis_seconds: float

    @property
    def mean(self) -> float:
        """Mean of the design delay distribution."""
        return self.circuit_delay.mean

    @property
    def std(self) -> float:
        """Standard deviation of the design delay distribution."""
        return self.circuit_delay.std

    def quantile(self, q: float) -> float:
        """Gaussian quantile of the design delay."""
        return self.circuit_delay.quantile(q)

    def cdf(self, values: np.ndarray) -> np.ndarray:
        """Gaussian CDF of the design delay evaluated at ``values``."""
        return np.asarray(self.circuit_delay.cdf(values))


def _profiles_differ(a: SpatialCorrelation, b: SpatialCorrelation) -> bool:
    """Whether two spatial correlation profiles are materially different."""
    return (
        abs(a.neighbor_correlation - b.neighbor_correlation) > 1e-9
        or abs(a.floor_correlation - b.floor_correlation) > 1e-9
        or abs(a.cutoff_distance - b.cutoff_distance) > 1e-9
    )


def _correlation_profile(design: HierarchicalDesign) -> SpatialCorrelation:
    """The (shared) spatial correlation profile of the design's modules."""
    instances = design.instances
    if not instances:
        raise HierarchyError("design %r has no instances" % design.name)
    profile = instances[0].model.correlation
    for instance in instances[1:]:
        if _profiles_differ(instance.model.correlation, profile):
            raise HierarchyError(
                "instance %r uses a different spatial correlation profile" % instance.name
            )
    return profile


@dataclass
class _InstanceMembership:
    """Which design-graph pieces belong to one instantiated model.

    ``edge_ids``/``vertices`` are the instance's model subgraph inside the
    design graph; ``ports`` the prefixed port vertices shared with the
    design connections (they survive a model swap); ``local_offset`` the
    instance's block offset into the combined independent space
    (``GLOBAL_ONLY`` mode only, ``-1`` otherwise).
    """

    edge_ids: List[int]
    vertices: List[str]
    ports: Set[str]
    local_offset: int = -1


def _design_basis(
    design: HierarchicalDesign, mode: CorrelationMode
) -> Tuple[Optional[DesignGrids], Optional[PCADecomposition]]:
    """The design grids and design-level PCA of ``mode``.

    Both are deterministic functions of the placement and the shared
    correlation profile; ``GLOBAL_ONLY`` needs neither (``None, None``).
    """
    if mode is CorrelationMode.REPLACEMENT:
        grids = build_design_grids(design)
        return grids, design_pca(grids, _correlation_profile(design))
    if mode is CorrelationMode.GLOBAL_ONLY:
        return None, None
    raise ValueError("unknown correlation mode %r" % mode)  # pragma: no cover


def _instance_edges(
    instance: ModuleInstance,
    mode: CorrelationMode,
    grids: Optional[DesignGrids],
    pca: Optional[PCADecomposition],
    num_locals: int,
    local_offset: int,
) -> List[Tuple[str, str, CanonicalForm]]:
    """The instance's prefixed model edges with their delays in the design basis.

    Both modes are one basis map of shape ``(k_module, num_locals)``
    applied to every edge's local coefficients: the eq. 19 replacement
    matrix in ``REPLACEMENT`` mode, the identity placed at the instance's
    private block ``[local_offset, local_offset + k_module)`` in
    ``GLOBAL_ONLY`` mode.  Touches no graph, so a swap that raises here
    leaves the design graph as it was.
    """
    if mode is CorrelationMode.REPLACEMENT:
        basis = replacement_matrix(instance, grids, pca)
    else:
        k = instance.model.num_locals
        basis = np.zeros((k, num_locals))
        basis[:, local_offset : local_offset + k] = np.eye(k)
    prefix = instance.prefix
    return [
        (
            prefix + edge.source,
            prefix + edge.sink,
            edge.delay.remap_locals(basis[: edge.delay.num_locals]),
        )
        for edge in instance.model.graph.edges
    ]


def _splice_instance(
    graph: TimingGraph,
    entry: _InstanceMembership,
    instance: ModuleInstance,
    edges: List[Tuple[str, str, CanonicalForm]],
) -> None:
    """Put ``instance``'s model vertices and ``edges`` in place of ``entry``'s.

    The port vertices stay (the design connections attach there).  Every
    mutation is journaled, so attached sessions re-time it as one cone.
    """
    for edge_id in entry.edge_ids:
        graph.remove_edge(graph.edge(edge_id))
    for name in entry.vertices:
        if name not in entry.ports:
            graph.remove_vertex(name)
    entry.vertices = [instance.prefix + vertex for vertex in instance.model.graph.vertices]
    for vertex in entry.vertices:
        graph.add_vertex(vertex)
    entry.edge_ids = [graph.add_edge(*edge).edge_id for edge in edges]


def _assemble_design_graph(
    design: HierarchicalDesign,
    mode: CorrelationMode = CorrelationMode.REPLACEMENT,
) -> Tuple[
    TimingGraph,
    Optional[DesignGrids],
    Optional[PCADecomposition],
    Dict[str, _InstanceMembership],
]:
    """Assemble the design graph, tracking per-instance membership."""
    design.validate()
    grids, pca = _design_basis(design, mode)
    if pca is not None:
        num_locals = pca.num_components
        offsets = [-1] * len(design.instances)
    else:
        offsets = []
        num_locals = 0
        for instance in design.instances:
            offsets.append(num_locals)
            num_locals += instance.model.num_locals

    graph = TimingGraph(design.name, num_locals)
    for pi in design.primary_inputs:
        graph.mark_input(pi)
    for po in design.primary_outputs:
        graph.mark_output(po)

    membership: Dict[str, _InstanceMembership] = {}
    for instance, local_offset in zip(design.instances, offsets):
        edges = _instance_edges(instance, mode, grids, pca, num_locals, local_offset)
        ports = {instance.port_vertex(port) for port in instance.model.inputs}
        ports.update(instance.port_vertex(port) for port in instance.model.outputs)
        entry = membership[instance.name] = _InstanceMembership([], [], ports, local_offset)
        _splice_instance(graph, entry, instance, edges)

    for connection in design.connections:
        delay = CanonicalForm.constant(connection.delay, num_locals)
        graph.add_edge(connection.source, connection.sink, delay)

    graph.validate()
    return graph, grids, pca, membership


def build_design_graph(
    design: HierarchicalDesign,
    mode: CorrelationMode = CorrelationMode.REPLACEMENT,
) -> Tuple[TimingGraph, Optional[DesignGrids], Optional[PCADecomposition]]:
    """Assemble the design-level timing graph for the requested mode.

    Returns ``(graph, grids, pca)``; the latter two are ``None`` in
    ``GLOBAL_ONLY`` mode (no design-level decomposition is needed there).
    """
    graph, grids, pca, _unused = _assemble_design_graph(design, mode)
    return graph, grids, pca


def analyze_hierarchical_design(
    design: HierarchicalDesign,
    mode: CorrelationMode = CorrelationMode.REPLACEMENT,
) -> HierarchicalResult:
    """Run the full hierarchical analysis of Fig. 5 on ``design``.

    The design-level graph is propagated with the block-based SSTA level
    fold, staying in the SoA representation end to end — only the
    primary-output forms are materialised as objects — and the design
    delay is the balanced tree-reduction Clark maximum over the reachable
    primary-output arrivals, both built on the shared batched kernels of
    :mod:`repro.core.batch`.
    """
    start = time.perf_counter()
    graph, grids, pca = build_design_graph(design, mode)

    times = propagate_arrival_times_batch(graph)
    index = times.arrays.vertex_index
    output_arrivals: Dict[str, CanonicalForm] = {}
    reachable_rows = []
    for output in design.primary_outputs:
        row = index.get(output)
        if row is not None and times.valid[row]:
            output_arrivals[output] = times.batch.form(row)
            reachable_rows.append(row)
    if not reachable_rows:
        raise HierarchyError(
            "no primary output of %r is reachable from a primary input" % design.name
        )
    delay = times.batch.gather(reachable_rows).max_over()
    elapsed = time.perf_counter() - start

    return HierarchicalResult(
        design_name=design.name,
        mode=mode,
        graph=graph,
        output_arrivals=output_arrivals,
        circuit_delay=delay,
        grids=grids,
        pca=pca,
        analysis_seconds=elapsed,
    )


class DesignTimer:
    """Incremental design-level analysis session (block-swap what-ifs).

    Where :func:`analyze_hierarchical_design` rebuilds and repropagates the
    whole design graph on every call, a ``DesignTimer`` assembles the graph
    once and keeps an :class:`~repro.timing.incremental.IncrementalTimer`
    attached to it.  :meth:`swap_instance_model` then replaces one
    instance's extracted model *in place* — the surgery lands in the
    graph's change journal and the next query re-times only the swap's
    fan-out cone, which is what makes rapid ECO/what-if loops over
    candidate module implementations cheap.
    """

    def __init__(
        self,
        design: HierarchicalDesign,
        mode: CorrelationMode = CorrelationMode.REPLACEMENT,
        required_time: Optional[CanonicalForm] = None,
    ) -> None:
        graph, grids, pca, membership = _assemble_design_graph(design, mode)
        self._design = design
        self._mode = mode
        self._grids = grids
        self._pca = pca
        self._membership = membership
        self._timer = IncrementalTimer(graph, required_time=required_time)
        self._module_sessions: Dict[str, ExtractionSession] = {}
        self._mc_session = None
        self._mc_key: Optional[Tuple] = None
        self._mc_library = None  # strong ref: the session cache is keyed to it
        self._mc_design_revision = -1

    # ------------------------------------------------------------------
    # Columnar snapshots (the repro.store persistence layer)
    # ------------------------------------------------------------------
    def save(self, path) -> "object":
        """Persist the whole session as a warm-start bundle directory.

        Convenience wrapper over :func:`repro.store.save_design_timer`:
        the design graph and timer state, the attached Monte Carlo session
        and every per-instance extraction session land as revision-keyed
        store entries under ``path``.
        """
        from repro.store import save_design_timer

        return save_design_timer(self, path)

    @classmethod
    def load(cls, path, design, library=None, on_overflow="error") -> "DesignTimer":
        """Restore a bundle saved by :meth:`save` against ``design``.

        Convenience wrapper over :func:`repro.store.load_design_timer`;
        see there for the identity checks and the ``on_overflow``
        semantics.
        """
        from repro.store import load_design_timer

        return load_design_timer(
            path, design, library=library, on_overflow=on_overflow
        )

    # ------------------------------------------------------------------
    @property
    def design(self) -> HierarchicalDesign:
        """The design this session analyses."""
        return self._design

    @property
    def mode(self) -> CorrelationMode:
        """The correlation mode the design graph was assembled in."""
        return self._mode

    @property
    def graph(self) -> TimingGraph:
        """The live design-level timing graph."""
        return self._timer.graph

    @property
    def grids(self) -> Optional[DesignGrids]:
        """Design grid partition (``None`` in ``GLOBAL_ONLY`` mode)."""
        return self._grids

    @property
    def pca(self) -> Optional[PCADecomposition]:
        """Design-level PCA decomposition (``None`` in ``GLOBAL_ONLY`` mode)."""
        return self._pca

    @property
    def timer(self) -> IncrementalTimer:
        """The underlying incremental timing session."""
        return self._timer

    # ------------------------------------------------------------------
    def swap_instance_model(
        self,
        instance_name: str,
        model: TimingModel,
        netlist: Optional[Netlist] = None,
        placement: Optional[Placement] = None,
    ) -> ModuleInstance:
        """Replace one instance's extracted model without a graph rebuild.

        The new model must keep the instance's port interface and die
        footprint (and, in ``GLOBAL_ONLY`` mode, its local-variable count —
        the combined independent space is frozen at assembly).  The design
        object is updated, the model's edges are spliced into the live
        design graph, and the swap's timing impact is repropagated
        incrementally by the next query.
        """
        old_instance = self._design.instance(instance_name)
        entry = self._membership[instance_name]
        if (
            self._mode is CorrelationMode.GLOBAL_ONLY
            and model.num_locals != old_instance.model.num_locals
        ):
            raise HierarchyError(
                "instance %r cannot swap to model %r: GLOBAL_ONLY mode "
                "freezes the combined local space (%d locals != %d)"
                % (
                    instance_name,
                    model.name,
                    model.num_locals,
                    old_instance.model.num_locals,
                )
            )
        if self._mode is CorrelationMode.REPLACEMENT and _profiles_differ(
            model.correlation, old_instance.model.correlation
        ):
            # The frozen design grids/PCA were derived from the shared
            # profile; a model characterized differently would silently
            # invalidate them (assembly rejects such mixes too).
            raise HierarchyError(
                "instance %r cannot swap to model %r: it uses a different "
                "spatial correlation profile" % (instance_name, model.name)
            )
        # replace_instance validates the port interface and footprint; if
        # the new edges then cannot be built (e.g. grid-count mismatch),
        # the old instance is restored before any graph mutation, so a
        # failed swap leaves the design and the graph untouched.
        instance = self._design.replace_instance(
            instance_name, model, netlist=netlist, placement=placement
        )
        try:
            edges = _instance_edges(
                instance, self._mode, self._grids, self._pca,
                self.graph.num_locals, entry.local_offset,
            )
        except Exception:
            self._design.restore_instance(old_instance)
            raise
        _splice_instance(self.graph, entry, instance, edges)
        return instance

    # ------------------------------------------------------------------
    # Per-instance extraction sessions (warm module re-extraction)
    # ------------------------------------------------------------------
    def attach_module_source(
        self,
        instance_name: str,
        graph: TimingGraph,
        variation: VariationModel,
    ) -> ExtractionSession:
        """Attach the full (pre-extraction) timing graph of one instance.

        Creates — and keeps, one per instance — an
        :class:`~repro.model.extraction.ExtractionSession` on the module's
        full graph, so ECO edits to the module (retimes, edge surgery) can
        be turned into a fresh extracted model *without a cold start*:
        :meth:`reextract_instance` refreshes only the dirty cone of the
        session's all-pairs tensors before recomputing the criticalities
        on them.  Returns the session (also available via
        :meth:`extraction_session`); re-attaching replaces it.
        """
        self._design.instance(instance_name)  # validates the name
        session = ExtractionSession(graph, variation)
        self._module_sessions[instance_name] = session
        return session

    def extraction_session(self, instance_name: str) -> ExtractionSession:
        """The extraction session attached to ``instance_name``."""
        try:
            return self._module_sessions[instance_name]
        except KeyError:
            raise HierarchyError(
                "no module source attached for instance %r "
                "(call attach_module_source first)" % instance_name
            ) from None

    def reextract_instance(
        self,
        instance_name: str,
        threshold: float = DEFAULT_CRITICALITY_THRESHOLD,
        name: Optional[str] = None,
        netlist: Optional[Netlist] = None,
        placement: Optional[Placement] = None,
    ) -> ModuleInstance:
        """Re-extract an instance's model from its attached module source
        and splice it into the live design graph.

        The extraction runs through the instance's persistent
        :class:`~repro.model.extraction.ExtractionSession` — after a module
        ECO only the affected all-pairs cone is repropagated, then one
        batched pass recomputes the criticalities — and the resulting
        model is installed with :meth:`swap_instance_model`, so the design
        re-times only the swap's fan-out cone on the next query.
        """
        session = self.extraction_session(instance_name)
        model = session.extract(threshold, name=name)
        return self.swap_instance_model(
            instance_name, model, netlist=netlist, placement=placement
        )

    # ------------------------------------------------------------------
    # Warm flattened Monte Carlo re-validation
    # ------------------------------------------------------------------
    def revalidate_monte_carlo(
        self,
        num_samples: int = 10000,
        seed: int = 0,
        *,
        library=None,
        grid_size: float = 0.0,
    ):
        """Flattened-netlist Monte Carlo of the current design, served warm.

        The first call flattens the design, builds the ground-truth timing
        graph and attaches a
        :class:`~repro.montecarlo.MonteCarloSession` to it; afterwards the
        session's caches are kept keyed to the design graph's revision:

        * an unchanged design returns the cached result immediately;
        * a design edit whose re-flattened graph is *structurally
          identical* (the common re-extraction/retune ECO: same gates,
          different delays) is applied to the session graph as edge
          retimes — only the retimed sample rows are redrawn and only
          their fan-out cone repropagated;
        * a structural change (different flattened netlist) rebinds a
          fresh session (cold).

        Like :func:`~repro.montecarlo.monte_carlo_hierarchical` this
        requires every instance to carry its gate-level netlist and
        placement — a swap that dropped them fails loudly rather than
        validating a stale implementation.  Returns the
        :class:`~repro.montecarlo.MonteCarloResult`.
        """
        from repro.montecarlo.flat import MonteCarloSession
        from repro.montecarlo.hierarchical import build_flat_timing_graph

        key = (num_samples, seed, grid_size)
        revision = self.graph.revision
        graph = None
        if (
            self._mc_session is not None
            and self._mc_key == key
            and self._mc_library is library
        ):
            if revision == self._mc_design_revision:
                return self._mc_session.revalidate()
            fresh = build_flat_timing_graph(self._design, library, grid_size)
            if self._sync_mc_graph(fresh):
                self._mc_design_revision = revision
                return self._mc_session.revalidate()
            graph = fresh  # structural change: reuse the flatten for the rebind

        if graph is None:
            graph = build_flat_timing_graph(self._design, library, grid_size)
        self._mc_session = MonteCarloSession(graph, num_samples=num_samples, seed=seed)
        self._mc_key = key
        self._mc_library = library
        self._mc_design_revision = revision
        return self._mc_session.revalidate()

    def _sync_mc_graph(self, fresh: TimingGraph) -> bool:
        """Retime the session graph to match ``fresh``; False if impossible.

        The flattening of an unchanged netlist is deterministic, so a
        delay-only design ECO yields a graph with the same vertices, IO
        designations and edge sequence — only the delays move.  Those land
        in the session graph's journal as retimes; anything structural
        reports False so the caller rebinds cold.
        """
        graph = self._mc_session.graph
        if (
            graph.num_edges != fresh.num_edges
            or graph.num_vertices != fresh.num_vertices
            or graph.inputs != fresh.inputs
            or graph.outputs != fresh.outputs
        ):
            return False
        pairs = list(zip(graph.edges, fresh.edges))
        for edge, fresh_edge in pairs:
            if edge.source != fresh_edge.source or edge.sink != fresh_edge.sink:
                return False
        for edge, fresh_edge in pairs:
            if edge.delay != fresh_edge.delay:
                graph.replace_edge_delay(edge, fresh_edge.delay)
        return True

    @property
    def monte_carlo_session(self):
        """The attached Monte Carlo session (``None`` before the first
        :meth:`revalidate_monte_carlo` call)."""
        return self._mc_session

    # ------------------------------------------------------------------
    def circuit_delay(self) -> CanonicalForm:
        """Design delay distribution (incrementally re-timed)."""
        return self._timer.circuit_delay()

    def output_arrivals(self) -> Dict[str, CanonicalForm]:
        """Arrival times at the reachable primary outputs."""
        return {
            output: arrival
            for output in self._design.primary_outputs
            if (arrival := self._timer.arrival_at(output)) is not None
        }

    def analyze(self) -> HierarchicalResult:
        """A :class:`HierarchicalResult` snapshot of the current state."""
        start = time.perf_counter()
        output_arrivals = self.output_arrivals()
        delay = self._timer.circuit_delay()
        elapsed = time.perf_counter() - start
        return HierarchicalResult(
            design_name=self._design.name,
            mode=self._mode,
            graph=self.graph,
            output_arrivals=output_arrivals,
            circuit_delay=delay,
            grids=self._grids,
            pca=self._pca,
            analysis_seconds=elapsed,
        )

    def __repr__(self) -> str:
        return "DesignTimer(%r, mode=%s, instances=%d)" % (
            self._design.name,
            self._mode.value,
            len(self._membership),
        )
