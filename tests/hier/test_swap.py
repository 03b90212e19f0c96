"""Tests of the incremental block-swap path (DesignTimer.swap_instance_model).

A :class:`~repro.hier.analysis.DesignTimer` keeps the assembled design graph
and an incremental session alive across model swaps; replacing one
instance's extracted model must re-time the design to the same result as a
full from-scratch rebuild and repropagation.
"""

import pytest

from repro.errors import HierarchyError
from repro.experiments.config import ExperimentConfig
from repro.experiments.figure7 import build_multiplier_design, build_multiplier_module
from repro.hier.analysis import (
    CorrelationMode,
    DesignTimer,
    analyze_hierarchical_design,
)
from repro.liberty.library import standard_library
from repro.model.extraction import extract_timing_model
from repro.timing.builder import build_timing_graph
from repro.timing.propagation import propagate_arrival_times_batch


@pytest.fixture(scope="module")
def module_pair():
    """One 4x4 multiplier module plus an alternate (smaller) model of it."""
    config = ExperimentConfig(monte_carlo_samples=400)
    module = build_multiplier_module(bits=4, config=config)
    library = standard_library()
    full_graph = build_timing_graph(
        module.netlist, library, module.placement, module.variation,
        name=module.netlist.name,
    )
    alternate = extract_timing_model(
        full_graph, module.variation, threshold=0.2, name="mult4_t20"
    )
    return module, alternate


@pytest.fixture
def quad_design(module_pair):
    module, _unused = module_pair
    return build_multiplier_design(module)


class TestSwapInstanceModel:
    def test_swap_matches_full_rebuild(self, module_pair, quad_design):
        module, alternate = module_pair
        session = DesignTimer(quad_design)
        session.circuit_delay()  # establish the baseline state

        session.swap_instance_model("m0_0", alternate)
        incremental = session.circuit_delay()

        # Ground truth 1: a full batch pass over the *same* live graph.
        times = propagate_arrival_times_batch(session.graph)
        for vertex, form in session.timer.arrival_times().items():
            assert form.is_close(times.form(vertex), rtol=1e-9, atol=1e-9), vertex

        # Ground truth 2: rebuilding the modified design from scratch.
        fresh = analyze_hierarchical_design(quad_design)
        assert incremental.mean == pytest.approx(fresh.mean, rel=1e-9)
        assert incremental.std == pytest.approx(fresh.std, rel=1e-9)
        assert quad_design.instance("m0_0").model is alternate
        # The old gate-level view described the old implementation; it must
        # not be silently carried over to the swapped model.
        assert quad_design.instance("m0_0").netlist is None
        assert quad_design.instance("m0_0").placement is None

    def test_swap_back_restores_the_distribution(self, module_pair, quad_design):
        module, alternate = module_pair
        session = DesignTimer(quad_design)
        before = session.circuit_delay()
        session.swap_instance_model("m0_0", alternate)
        session.circuit_delay()
        session.swap_instance_model("m0_0", module.model)
        after = session.circuit_delay()
        assert after.mean == pytest.approx(before.mean, rel=1e-12)
        assert after.std == pytest.approx(before.std, rel=1e-12)

    def test_swap_works_in_global_only_mode(self, module_pair, quad_design):
        _module, alternate = module_pair
        session = DesignTimer(quad_design, CorrelationMode.GLOBAL_ONLY)
        session.circuit_delay()
        session.swap_instance_model("m1_1", alternate)
        incremental = session.circuit_delay()
        fresh = analyze_hierarchical_design(quad_design, CorrelationMode.GLOBAL_ONLY)
        assert incremental.mean == pytest.approx(fresh.mean, rel=1e-9)
        assert incremental.std == pytest.approx(fresh.std, rel=1e-9)

    def test_analyze_snapshot(self, module_pair, quad_design):
        module, alternate = module_pair
        session = DesignTimer(quad_design)
        result = session.analyze()
        assert result.design_name == quad_design.name
        assert set(result.output_arrivals) == set(quad_design.primary_outputs)
        fresh = analyze_hierarchical_design(quad_design)
        assert result.mean == pytest.approx(fresh.mean, rel=1e-9)


class TestReextractInstance:
    """Warm re-extraction of a swapped block through its module session."""

    def test_reextract_matches_cold_pipeline(self, module_pair, quad_design):
        module, _unused = module_pair
        library = standard_library()
        full_graph = build_timing_graph(
            module.netlist, library, module.placement, module.variation,
            name=module.netlist.name,
        )
        session = DesignTimer(quad_design)
        session.circuit_delay()
        session.attach_module_source("m0_0", full_graph, module.variation)

        # Module-level ECO: slow one edge of the block's full graph down.
        edge = full_graph.edges[len(full_graph.edges) // 2]
        full_graph.replace_edge_delay(edge, edge.delay.scale(1.4))

        instance = session.reextract_instance("m0_0", threshold=0.05)
        incremental = session.circuit_delay()

        # Ground truth: cold extraction of the edited module plus a full
        # design rebuild (the design object already holds the new model).
        cold_model = extract_timing_model(
            full_graph, module.variation, threshold=0.05
        )
        cold_edges = sorted(
            (e.source, e.sink, e.delay.nominal) for e in cold_model.graph.edges
        )
        warm_edges = sorted(
            (e.source, e.sink, e.delay.nominal) for e in instance.model.graph.edges
        )
        assert len(warm_edges) == len(cold_edges)
        for warm, cold in zip(warm_edges, cold_edges):
            assert warm[:2] == cold[:2]
            assert warm[2] == pytest.approx(cold[2], abs=1e-9)
        fresh = analyze_hierarchical_design(quad_design)
        assert incremental.mean == pytest.approx(fresh.mean, rel=1e-9)
        assert incremental.std == pytest.approx(fresh.std, rel=1e-9)

    def test_repeated_reextraction_is_warm(self, module_pair, quad_design):
        module, _unused = module_pair
        library = standard_library()
        full_graph = build_timing_graph(
            module.netlist, library, module.placement, module.variation,
            name=module.netlist.name,
        )
        session = DesignTimer(quad_design)
        extraction = session.attach_module_source(
            "m1_1", full_graph, module.variation
        )
        assert session.extraction_session("m1_1") is extraction
        session.reextract_instance("m1_1")
        serial_before = extraction.allpairs.serial
        edge = full_graph.edges[0]
        full_graph.replace_edge_delay(edge, edge.delay.scale(1.05))
        session.reextract_instance("m1_1")
        # One incremental refresh, not a rebuilt session.
        assert extraction.allpairs.serial == serial_before + 1
        assert extraction.allpairs.last_update.mode == "incremental"

    def test_reextract_without_source_raises(self, module_pair, quad_design):
        session = DesignTimer(quad_design)
        with pytest.raises(HierarchyError, match="attach_module_source"):
            session.reextract_instance("m0_0")

    def test_attach_validates_instance_name(self, module_pair, quad_design):
        module, _unused = module_pair
        library = standard_library()
        full_graph = build_timing_graph(
            module.netlist, library, module.placement, module.variation,
            name=module.netlist.name,
        )
        session = DesignTimer(quad_design)
        with pytest.raises(HierarchyError):
            session.attach_module_source("ghost", full_graph, module.variation)


class TestReplaceInstanceValidation:
    def test_foreign_port_interface_rejected(self, module_pair, quad_design):
        """A model with a different port interface cannot be swapped in."""
        from repro.netlist.netlist import Gate, Netlist
        from repro.placement.placer import place_netlist
        from repro.timing.builder import default_variation_for

        gates = [Gate("u1", "NAND", ("p", "q"), "r")]
        netlist = Netlist("alien", ["p", "q"], ["r"], gates)
        netlist.validate()
        library = standard_library()
        placement = place_netlist(netlist, library)
        variation = default_variation_for(netlist, placement)
        graph = build_timing_graph(netlist, library, placement, variation)
        foreign = extract_timing_model(graph, variation, threshold=0.0)

        session = DesignTimer(quad_design)
        before = session.circuit_delay()
        with pytest.raises(HierarchyError, match="port"):
            session.swap_instance_model("m0_0", foreign)
        # The failed swap left design and graph untouched.
        assert quad_design.instance("m0_0").model is module_pair[0].model
        after = session.circuit_delay()
        assert after.mean == pytest.approx(before.mean, rel=1e-12)

    def test_rejected_replacement_swap_is_atomic(self, module_pair, quad_design):
        """A model the design basis cannot map is rejected after
        replace_instance accepted it: the design and graph stay as they were."""
        config = ExperimentConfig(max_cells_per_grid=4)
        finer = build_multiplier_module(bits=4, config=config).model
        session = DesignTimer(quad_design)
        before = session.circuit_delay()
        revision = session.graph.revision
        old_instance = quad_design.instance("m0_0")
        with pytest.raises(HierarchyError, match="maps 1 design grids onto 25 module grids"):
            session.swap_instance_model("m0_0", finer)
        assert quad_design.instance("m0_0") is old_instance
        assert session.graph.revision == revision
        assert session.circuit_delay() == before

    def test_unknown_instance_rejected(self, module_pair, quad_design):
        _module, alternate = module_pair
        session = DesignTimer(quad_design)
        with pytest.raises(HierarchyError):
            session.swap_instance_model("ghost", alternate)

    def test_mismatched_correlation_profile_rejected(self, module_pair, quad_design):
        """The frozen design grids/PCA assume the shared spatial profile."""
        from repro.variation.model import VariationModel
        from repro.variation.spatial import SpatialCorrelation

        module, _alternate = module_pair
        library = standard_library()
        variation = VariationModel(
            module.variation.partition,
            SpatialCorrelation(neighbor_correlation=0.6, floor_correlation=0.1),
            0.12,
            0.2,
        )
        graph = build_timing_graph(
            module.netlist, library, module.placement, variation,
            name=module.netlist.name,
        )
        foreign_profile = extract_timing_model(
            graph, variation, threshold=0.0, name="mult4_other_profile"
        )
        session = DesignTimer(quad_design)
        session.circuit_delay()
        with pytest.raises(HierarchyError, match="correlation profile"):
            session.swap_instance_model("m0_0", foreign_profile)
        assert quad_design.instance("m0_0").model is module.model
