"""Hierarchical design data model.

A :class:`HierarchicalDesign` is a top-level die, a set of
:class:`ModuleInstance` (a pre-characterized timing model placed at an
origin), the port-to-port connections between instances, and the design's
primary inputs and outputs.  Instances may optionally carry the module's
gate-level netlist and placement so the design can be *flattened* for the
Monte Carlo reference analysis.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.canonical import CanonicalForm
from repro.errors import HierarchyError
from repro.model.timing_model import TimingModel
from repro.netlist.netlist import Netlist
from repro.placement.placer import Placement
from repro.variation.grid import Die

__all__ = ["ModuleInstance", "Connection", "HierarchicalDesign"]


@dataclass
class ModuleInstance:
    """One placed instance of a pre-characterized module.

    Attributes
    ----------
    name:
        Instance name, unique within the design.
    model:
        The module's statistical timing model.
    origin_x, origin_y:
        Lower-left corner of the instance on the design die.
    netlist, placement:
        Optional gate-level view of the module, needed only for flattened
        Monte Carlo reference runs.
    """

    name: str
    model: TimingModel
    origin_x: float = 0.0
    origin_y: float = 0.0
    netlist: Optional[Netlist] = None
    placement: Optional[Placement] = None

    @property
    def die(self) -> Die:
        """Module die outline (before translation)."""
        return self.model.die

    @property
    def bounds(self) -> Tuple[float, float, float, float]:
        """``(xmin, ymin, xmax, ymax)`` of the instance on the design die."""
        return (
            self.origin_x,
            self.origin_y,
            self.origin_x + self.die.width,
            self.origin_y + self.die.height,
        )

    @property
    def prefix(self) -> str:
        """Vertex-name prefix used when the model graph is instantiated."""
        return "%s/" % self.name

    def port_vertex(self, port: str) -> str:
        """Design-level vertex name of one of the instance's ports."""
        return self.prefix + port

    def overlaps(self, other: "ModuleInstance") -> bool:
        """Whether the two instance outlines overlap."""
        ax0, ay0, ax1, ay1 = self.bounds
        bx0, by0, bx1, by1 = other.bounds
        return ax0 < bx1 and bx0 < ax1 and ay0 < by1 and by0 < ay1


@dataclass(frozen=True)
class Connection:
    """A directed design-level connection between two port vertices.

    ``source`` and ``sink`` are design-level vertex names: either
    ``"instance/port"`` for module ports or a bare name for design-level
    primary inputs/outputs.  ``delay`` is the nominal interconnect delay in
    picoseconds (zero for abutted connections).
    """

    source: str
    sink: str
    delay: float = 0.0


class HierarchicalDesign:
    """A top-level design assembled from pre-characterized timing models."""

    def __init__(self, name: str, die: Die) -> None:
        self._name = name
        self._die = die
        self._instances: Dict[str, ModuleInstance] = {}
        self._connections: List[Connection] = []
        self._primary_inputs: List[str] = []
        self._primary_outputs: List[str] = []

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Design name."""
        return self._name

    @property
    def die(self) -> Die:
        """Top-level design die."""
        return self._die

    @property
    def instances(self) -> Tuple[ModuleInstance, ...]:
        """All module instances in insertion order."""
        return tuple(self._instances.values())

    @property
    def connections(self) -> Tuple[Connection, ...]:
        """All design-level connections."""
        return tuple(self._connections)

    @property
    def primary_inputs(self) -> Tuple[str, ...]:
        """Design-level primary input names."""
        return tuple(self._primary_inputs)

    @property
    def primary_outputs(self) -> Tuple[str, ...]:
        """Design-level primary output names."""
        return tuple(self._primary_outputs)

    def instance(self, name: str) -> ModuleInstance:
        """Look an instance up by name."""
        try:
            return self._instances[name]
        except KeyError:
            raise HierarchyError("design %r has no instance %r" % (self._name, name)) from None

    def __contains__(self, name: str) -> bool:
        return name in self._instances

    def __iter__(self) -> Iterator[ModuleInstance]:
        return iter(self._instances.values())

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_instance(self, instance: ModuleInstance) -> ModuleInstance:
        """Place a module instance on the design die."""
        if instance.name in self._instances:
            raise HierarchyError("duplicate instance %r" % instance.name)
        xmin, ymin, xmax, ymax = instance.bounds
        dx0, dy0, dx1, dy1 = self._die.bounds
        tolerance = 1e-9
        if xmin < dx0 - tolerance or ymin < dy0 - tolerance or xmax > dx1 + tolerance or ymax > dy1 + tolerance:
            raise HierarchyError("instance %r does not fit on the design die" % instance.name)
        for existing in self._instances.values():
            if instance.overlaps(existing):
                raise HierarchyError(
                    "instance %r overlaps instance %r" % (instance.name, existing.name)
                )
        self._instances[instance.name] = instance
        return instance

    def replace_instance(
        self,
        name: str,
        model: TimingModel,
        netlist: Optional[Netlist] = None,
        placement: Optional[Placement] = None,
    ) -> ModuleInstance:
        """Swap the timing model of an existing instance in place.

        The new model must expose the same input/output ports as the old
        one (the design connections attach there) and keep the same die
        footprint so the placement stays valid.  Returns the new
        :class:`ModuleInstance`; the existing design connections are
        untouched.

        The old instance's gate-level ``netlist``/``placement`` describe
        the *old* implementation, so they are deliberately **not** carried
        over: unless the caller supplies a matching gate-level view for
        the new model, the instance loses it and a later flattened Monte
        Carlo run fails loudly instead of silently validating the wrong
        implementation.
        """
        old = self.instance(name)
        if set(model.inputs) != set(old.model.inputs) or set(
            model.outputs
        ) != set(old.model.outputs):
            raise HierarchyError(
                "replacement model %r for instance %r changes the port "
                "interface" % (model.name, name)
            )
        old_die = old.model.die
        new_die = model.die
        if (
            abs(new_die.width - old_die.width) > 1e-9
            or abs(new_die.height - old_die.height) > 1e-9
        ):
            raise HierarchyError(
                "replacement model %r for instance %r changes the die "
                "footprint" % (model.name, name)
            )
        instance = ModuleInstance(
            name,
            model,
            old.origin_x,
            old.origin_y,
            netlist=netlist,
            placement=placement,
        )
        self._instances[name] = instance
        return instance

    def restore_instance(self, instance: ModuleInstance) -> None:
        """Put a previously displaced instance object back, as-is.

        Rollback hook for callers that replace an instance and then fail a
        later step (e.g. an incremental model swap whose subgraph
        instantiation is rejected): the exact old object returns without
        re-validation or re-defaulting.  The instance name must already
        exist in the design.
        """
        if instance.name not in self._instances:
            raise HierarchyError(
                "cannot restore unknown instance %r" % instance.name
            )
        self._instances[instance.name] = instance

    def add_primary_input(self, name: str) -> None:
        """Declare a design-level primary input vertex."""
        if name not in self._primary_inputs:
            self._primary_inputs.append(name)

    def add_primary_output(self, name: str) -> None:
        """Declare a design-level primary output vertex."""
        if name not in self._primary_outputs:
            self._primary_outputs.append(name)

    def connect(self, source: str, sink: str, delay: float = 0.0) -> Connection:
        """Connect two design-level vertices (``"instance/port"`` or PI/PO names).

        The referenced instance ports must exist on the corresponding
        models.
        """
        for endpoint, expect_output in ((source, True), (sink, False)):
            if "/" in endpoint:
                instance_name, port = endpoint.split("/", 1)
                instance = self.instance(instance_name)
                ports = instance.model.outputs if expect_output else instance.model.inputs
                if port not in ports:
                    kind = "output" if expect_output else "input"
                    raise HierarchyError(
                        "instance %r has no %s port %r" % (instance_name, kind, port)
                    )
        connection = Connection(source, sink, delay)
        self._connections.append(connection)
        return connection

    # ------------------------------------------------------------------
    # Convenience queries
    # ------------------------------------------------------------------
    def unconnected_instance_inputs(self) -> List[str]:
        """Instance input ports that no connection drives (for sanity checks)."""
        driven = {connection.sink for connection in self._connections}
        dangling: List[str] = []
        for instance in self._instances.values():
            for port in instance.model.inputs:
                vertex = instance.port_vertex(port)
                if vertex not in driven:
                    dangling.append(vertex)
        return dangling

    def validate(self) -> None:
        """Check that the design is analyzable.

        The design must declare at least one primary input and output.  A
        bare-name connection source must be a declared primary input and a
        bare-name sink a declared primary output.  Every instance input and
        every primary output must be driven by exactly one connection.
        """
        if not self._primary_inputs or not self._primary_outputs:
            raise HierarchyError("design %r needs primary inputs and outputs" % self._name)
        sink_counts = Counter(connection.sink for connection in self._connections)
        multiple = [sink for sink, count in sink_counts.items() if count > 1]
        if multiple:
            raise HierarchyError(
                "design %r has multiple drivers for %s"
                % (self._name, ", ".join(repr(sink) for sink in multiple))
            )
        inputs, outputs = set(self._primary_inputs), set(self._primary_outputs)
        bare_sources = (c.source for c in self._connections if "/" not in c.source)
        bare_sinks = (c.sink for c in self._connections if "/" not in c.sink)
        problems = [
            "%s: %s" % (what, ", ".join(repr(name) for name in dict.fromkeys(names)))
            for what, names in (
                ("connection sources that are not primary inputs",
                 [name for name in bare_sources if name not in inputs]),
                ("connection sinks that are not primary outputs",
                 [name for name in bare_sinks if name not in outputs]),
                ("undriven primary outputs",
                 [name for name in self._primary_outputs if name not in sink_counts]),
            )
            if names
        ]
        if problems:
            raise HierarchyError("design %r has %s" % (self._name, "; ".join(problems)))
        dangling = self.unconnected_instance_inputs()
        if dangling:
            raise HierarchyError(
                "design %r has undriven instance inputs, e.g. %s"
                % (self._name, ", ".join(dangling[:5]))
            )

    def __repr__(self) -> str:
        return "HierarchicalDesign(%r, instances=%d, connections=%d)" % (
            self._name,
            len(self._instances),
            len(self._connections),
        )
