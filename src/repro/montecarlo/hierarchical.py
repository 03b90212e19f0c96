"""Flattened Monte Carlo reference for hierarchical designs.

The paper validates the hierarchical analysis against a Monte Carlo
simulation "using the flattened netlist of the original circuit".  This
module flattens a :class:`~repro.hier.design.HierarchicalDesign` back into a
single gate-level netlist plus a combined placement, builds its statistical
timing graph with a design-wide variation model, and samples the delay
distribution with the vectorized simulator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.batch import CanonicalBatch
from repro.errors import HierarchyError
from repro.hier.design import HierarchicalDesign
from repro.liberty.library import Library, standard_library
from repro.montecarlo.flat import MonteCarloResult, simulate_graph_delay
from repro.netlist.netlist import Gate, Netlist
from repro.placement.placer import Placement
from repro.timing.arrays import GraphArrays
from repro.timing.builder import build_timing_graph
from repro.timing.graph import TimingGraph
from repro.variation.grid import GridPartition
from repro.variation.model import VariationModel

__all__ = [
    "flatten_design",
    "build_flat_timing_graph",
    "flat_edge_batch",
    "monte_carlo_hierarchical",
]


def _resolve(alias: Dict[str, str], name: str) -> str:
    """Follow the alias chain of design connections to the driving net."""
    seen = set()
    while name in alias:
        if name in seen:
            raise HierarchyError("connection alias cycle through %r" % name)
        seen.add(name)
        name = alias[name]
    return name


def flatten_design(design: HierarchicalDesign) -> Tuple[Netlist, Placement]:
    """Flatten a hierarchical design into one netlist plus placement.

    Every instance must carry its gate-level netlist and placement.  Design
    connections become net aliases, so they must have zero interconnect
    delay (the paper's experimental design uses abutted, zero-delay
    connections).
    """
    design.validate()
    for connection in design.connections:
        if connection.delay != 0.0:
            raise HierarchyError(
                "cannot flatten a design with non-zero interconnect delay "
                "(%s -> %s)" % (connection.source, connection.sink)
            )
    for instance in design.instances:
        if instance.netlist is None or instance.placement is None:
            raise HierarchyError(
                "instance %r has no gate-level netlist/placement to flatten" % instance.name
            )

    # Map every connection sink (an instance input port or a design primary
    # output) onto its driving net.
    alias: Dict[str, str] = {}
    for connection in design.connections:
        if connection.sink in alias:
            raise HierarchyError("multiple drivers for %r" % connection.sink)
        alias[connection.sink] = connection.source

    gates: List[Gate] = []
    locations: Dict[str, Tuple[float, float]] = {}
    for instance in design.instances:
        prefix = instance.prefix
        netlist = instance.netlist
        placement = instance.placement
        shifted = placement.shifted(instance.origin_x, instance.origin_y, prefix)
        locations.update(shifted.locations)
        for gate in netlist.gates:
            inputs = tuple(_resolve(alias, prefix + net) for net in gate.inputs)
            gates.append(Gate(prefix + gate.name, gate.function, inputs, prefix + gate.output))

    primary_inputs = list(design.primary_inputs)
    primary_outputs = [_resolve(alias, name) for name in design.primary_outputs]

    flat = Netlist(design.name + "_flat", primary_inputs, primary_outputs, gates)
    flat.validate()

    num_inputs = max(1, len(primary_inputs))
    for position, net in enumerate(primary_inputs):
        fraction = (position + 0.5) / num_inputs
        locations[net] = (design.die.origin_x, design.die.origin_y + fraction * design.die.height)
    placement = Placement(design.die, locations)
    return flat, placement


def build_flat_timing_graph(
    design: HierarchicalDesign,
    library: Optional[Library] = None,
    grid_size: float = 0.0,
) -> TimingGraph:
    """Statistical timing graph of the flattened design.

    The variation model spans the whole design die with a regular grid of
    the modules' characterization grid size and the same correlation profile
    and sigma budget as the instantiated models, so it is the physical
    ground truth the hierarchical approximations are judged against.
    """
    library = standard_library() if library is None else library
    flat, placement = flatten_design(design)

    reference = design.instances[0].model.variation
    if grid_size <= 0.0:
        grid_size = reference.partition.grid_size
    partition = GridPartition.regular(design.die, grid_size)
    variation = VariationModel(
        partition,
        reference.correlation,
        reference.sigma_fraction,
        reference.random_variance_share,
    )
    return build_timing_graph(flat, library, placement, variation, name=flat.name)


def flat_edge_batch(
    design: HierarchicalDesign,
    library: Optional[Library] = None,
    grid_size: float = 0.0,
) -> CanonicalBatch:
    """The flattened design's edge delays as one :class:`CanonicalBatch`.

    This is the structure-of-arrays population the Monte Carlo simulator
    samples from — every edge delay of the flattened timing graph stacked
    into the shared SoA layout, instead of coefficients re-extracted object
    by object.  Useful for sampling or inspecting the design-wide delay
    statistics directly.
    """
    graph = build_flat_timing_graph(design, library, grid_size)
    return GraphArrays.from_graph(graph).edge_batch


def monte_carlo_hierarchical(
    design: HierarchicalDesign,
    num_samples: int = 10000,
    seed: int = 0,
    chunk_size: Optional[int] = None,
    library: Optional[Library] = None,
    workers: Optional[int] = None,
    executor=None,
) -> MonteCarloResult:
    """Monte Carlo delay distribution of the flattened hierarchical design.

    The simulator draws every edge delay jointly from the flattened graph's
    :class:`CanonicalBatch` view (see :func:`flat_edge_batch`) and
    propagates with the levelized Monte Carlo kernel (``chunk_size``/
    ``workers``/``executor`` forward to
    :func:`simulate_graph_delay`; ``chunk_size=None`` auto-sizes from the
    flattened graph, a worker count shards block-aligned sample ranges
    across the process pool with bit-identical results).  For warm
    re-validation after design ECOs, see
    :meth:`repro.hier.analysis.DesignTimer.revalidate_monte_carlo`.
    """
    graph = build_flat_timing_graph(design, library)
    return simulate_graph_delay(
        graph,
        num_samples,
        seed,
        chunk_size,
        workers=workers,
        executor=executor,
    )
