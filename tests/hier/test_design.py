"""Tests of the hierarchical design data model."""

import pytest

from repro.errors import HierarchyError
from repro.hier.analysis import DesignTimer, analyze_hierarchical_design
from repro.hier.design import HierarchicalDesign, ModuleInstance
from repro.model.extraction import extract_timing_model
from repro.montecarlo.hierarchical import flatten_design
from repro.variation.grid import Die


@pytest.fixture
def module_model(random_graph_and_variation):
    graph, variation = random_graph_and_variation
    return extract_timing_model(graph, variation, threshold=0.05)


@pytest.fixture
def design(module_model):
    die = module_model.die
    design = HierarchicalDesign("pair", Die(2 * die.width, die.height))
    design.add_instance(ModuleInstance("left", module_model, 0.0, 0.0))
    design.add_instance(ModuleInstance("right", module_model, die.width, 0.0))
    return design


class TestInstances:
    def test_instance_bounds_and_ports(self, module_model):
        instance = ModuleInstance("m", module_model, 5.0, 7.0)
        xmin, ymin, xmax, ymax = instance.bounds
        assert (xmin, ymin) == (5.0, 7.0)
        assert xmax - xmin == pytest.approx(module_model.die.width)
        assert instance.port_vertex(module_model.inputs[0]).startswith("m/")

    def test_duplicate_instance_rejected(self, design, module_model):
        with pytest.raises(HierarchyError):
            design.add_instance(ModuleInstance("left", module_model, 0.0, 0.0))

    def test_overlap_rejected(self, design, module_model):
        with pytest.raises(HierarchyError):
            design.add_instance(ModuleInstance("overlap", module_model, 1.0, 0.0))

    def test_off_die_rejected(self, design, module_model):
        with pytest.raises(HierarchyError):
            design.add_instance(
                ModuleInstance("outside", module_model, 10 * module_model.die.width, 0.0)
            )

    def test_instance_lookup(self, design):
        assert design.instance("left").name == "left"
        assert "left" in design
        with pytest.raises(HierarchyError):
            design.instance("missing")


class TestConnections:
    def test_connect_ports(self, design, module_model):
        source = "left/%s" % module_model.outputs[0]
        sink = "right/%s" % module_model.inputs[0]
        connection = design.connect(source, sink)
        assert connection.delay == 0.0
        assert design.connections[-1] is connection

    def test_connect_unknown_port_rejected(self, design):
        with pytest.raises(HierarchyError):
            design.connect("left/not_a_port", "right/also_not")

    def test_connect_wrong_direction_rejected(self, design, module_model):
        # Using an input port as a connection source must fail.
        with pytest.raises(HierarchyError):
            design.connect("left/%s" % module_model.inputs[0], "right/%s" % module_model.inputs[1])

    def test_primary_ports(self, design):
        design.add_primary_input("PI0")
        design.add_primary_input("PI0")
        design.add_primary_output("PO0")
        assert design.primary_inputs == ("PI0",)
        assert design.primary_outputs == ("PO0",)


def _wire(design, module_model, undeclared=()):
    """Drive every instance input from a primary input and connect the
    right instance's outputs to primary outputs; the port names in
    ``undeclared`` are connected but never declared."""
    for instance in ("left", "right"):
        for port in module_model.inputs:
            pi = "PI_%s_%s" % (instance, port)
            if pi not in undeclared:
                design.add_primary_input(pi)
            design.connect(pi, "%s/%s" % (instance, port))
    for port in module_model.outputs:
        po = "PO_%s" % port
        if po not in undeclared:
            design.add_primary_output(po)
        design.connect("right/%s" % port, po)


def _assert_rejected(design, *fragments):
    """Validation and every consumer of the design raise, naming each fault."""
    for consumer in (
        HierarchicalDesign.validate,
        analyze_hierarchical_design,
        DesignTimer,
        flatten_design,
    ):
        with pytest.raises(HierarchyError) as info:
            consumer(design)
        for fragment in fragments:
            assert fragment in str(info.value), consumer


class TestValidation:
    def test_validate_requires_primary_ports(self, design):
        with pytest.raises(HierarchyError):
            design.validate()

    def test_validate_requires_driven_inputs(self, design, module_model):
        design.add_primary_input("PI0")
        design.add_primary_output("PO0")
        with pytest.raises(HierarchyError):
            design.validate()
        assert len(design.unconnected_instance_inputs()) == 2 * len(module_model.inputs)

    def test_fully_wired_design_validates(self, design, module_model):
        _wire(design, module_model)
        design.validate()
        assert design.unconnected_instance_inputs() == []

    def test_undeclared_bare_source_rejected(self, design, module_model):
        ghost = "PI_left_%s" % module_model.inputs[0]
        _wire(design, module_model, undeclared={ghost})
        _assert_rejected(design, "not primary inputs: %r" % ghost)

    def test_undeclared_bare_sink_rejected(self, design, module_model):
        stray = "PO_%s" % module_model.outputs[0]
        _wire(design, module_model, undeclared={stray})
        _assert_rejected(design, "not primary outputs: %r" % stray)

    def test_undriven_primary_output_rejected(self, design, module_model):
        _wire(design, module_model)
        design.add_primary_output("PO_UNDRIVEN")
        _assert_rejected(design, "undriven primary outputs: 'PO_UNDRIVEN'")

    def test_every_bare_name_fault_is_named(self, design, module_model):
        ghost = "PI_right_%s" % module_model.inputs[-1]
        stray = "PO_%s" % module_model.outputs[-1]
        _wire(design, module_model, undeclared={ghost, stray})
        design.add_primary_output("PO_UNDRIVEN")
        _assert_rejected(design, repr(ghost), repr(stray), "'PO_UNDRIVEN'")

