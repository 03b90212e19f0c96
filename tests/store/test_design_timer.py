"""Warm-start parity of whole :class:`DesignTimer` bundles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import StoreKeyError
from repro.experiments.config import ExperimentConfig
from repro.experiments.figure7 import build_multiplier_design, build_multiplier_module
from repro.hier.analysis import CorrelationMode, DesignTimer
from repro.hier.design import HierarchicalDesign, ModuleInstance
from repro.liberty.library import standard_library
from repro.model.extraction import extract_timing_model
from repro.store.format import read_entry, write_entry
from repro.timing.builder import build_timing_graph
from repro.variation.grid import Die


@pytest.fixture(scope="module")
def design_setup():
    """A characterized 4x4 multiplier design plus a swap candidate."""
    config = ExperimentConfig(monte_carlo_samples=400)
    module = build_multiplier_module(bits=4, config=config)
    design = build_multiplier_design(module)
    library = standard_library()
    full_graph = build_timing_graph(
        module.netlist, library, module.placement, module.variation,
        name=module.netlist.name,
    )
    alternate = extract_timing_model(
        full_graph, module.variation, threshold=0.2, name="mult4_compressed"
    )
    return module, design, library, full_graph, alternate


@pytest.fixture
def saved_bundle(design_setup, tmp_path, request):
    """A fresh warm timer (delay + MC + one extraction session), saved.

    Assembled in ``REPLACEMENT`` mode unless a test parametrizes the
    fixture indirectly with a :class:`CorrelationMode`.
    """
    module, design, library, full_graph, _unused = design_setup
    timer = DesignTimer(design, getattr(request, "param", CorrelationMode.REPLACEMENT))
    timer.circuit_delay()
    timer.revalidate_monte_carlo(num_samples=300, seed=1, library=library)
    timer.attach_module_source(
        design.instances[0].name, full_graph, module.variation
    )
    timer.save(tmp_path / "bundle")
    return timer, tmp_path / "bundle"


both_modes = pytest.mark.parametrize(
    "saved_bundle", list(CorrelationMode), ids=lambda mode: mode.value, indirect=True
)


class TestBundleParity:
    def test_layout_on_disk(self, saved_bundle):
        _timer, root = saved_bundle
        assert (root / "design.npz").is_file()
        assert (root / "timer.npz").is_file()
        assert (root / "montecarlo.npz").is_file()
        assert len(list((root / "extraction").iterdir())) == 1

    @both_modes
    def test_delay_and_monte_carlo_parity(self, design_setup, saved_bundle):
        _module, design, library, _graph, _alt = design_setup
        timer, root = saved_bundle
        loaded = DesignTimer.load(root, design, library=library)
        assert loaded.circuit_delay() == timer.circuit_delay()
        reference = timer.revalidate_monte_carlo(
            num_samples=300, seed=1, library=library
        )
        restored = loaded.revalidate_monte_carlo(
            num_samples=300, seed=1, library=library
        )
        assert np.array_equal(restored.samples, reference.samples)

    @both_modes
    def test_post_load_swap_stays_bit_identical(self, design_setup, saved_bundle):
        """Edits after the restart flow through the ordinary journaled paths."""
        module, design, library, _graph, alternate = design_setup
        timer, root = saved_bundle
        loaded = DesignTimer.load(root, design, library=library)
        # The last instance: in GLOBAL_ONLY mode its locals sit at a
        # nonzero offset, which only the saved membership knows.
        swapped = design.instances[-1].name
        for session in (timer, loaded):
            session.swap_instance_model(
                swapped, alternate,
                netlist=module.netlist, placement=module.placement,
            )
        assert loaded.circuit_delay() == timer.circuit_delay()
        reference = timer.revalidate_monte_carlo(
            num_samples=300, seed=1, library=library
        )
        restored = loaded.revalidate_monte_carlo(
            num_samples=300, seed=1, library=library
        )
        assert np.array_equal(restored.samples, reference.samples)
        # Swaps update the shared (module-scoped) design object: revert so
        # the other tests see the original model.
        for session in (timer, loaded):
            session.swap_instance_model(
                swapped, module.model,
                netlist=module.netlist, placement=module.placement,
            )

    def test_extraction_sessions_restore_warm(self, design_setup, saved_bundle):
        _module, design, library, _graph, _alt = design_setup
        timer, root = saved_bundle
        loaded = DesignTimer.load(root, design, library=library)
        instance = design.instances[0].name
        original = timer.extraction_session(instance).extract(0.1)
        restored = loaded.extraction_session(instance).extract(0.1)
        assert restored.graph.num_edges == original.graph.num_edges
        for a, b in zip(original.graph.edges, restored.graph.edges):
            assert b.delay == a.delay


    def test_manifest_with_a_workers_key_loads(self, design_setup, saved_bundle):
        # Bundles written while DesignTimer still took a worker count carry
        # "workers" in their manifest; loading ignores the key.
        _module, design, library, _graph, _alt = design_setup
        timer, root = saved_bundle
        path = root / "design.npz"
        entry = read_entry(path)
        assert "workers" not in entry.meta
        write_entry(
            path, entry.kind, entry.graph_id, entry.revision, entry.columns,
            meta=dict(entry.meta, workers=2),
        )
        loaded = DesignTimer.load(root, design, library=library)
        assert loaded.timer.update().mode == "noop"  # warm: no full pass ran
        assert loaded.circuit_delay() == timer.circuit_delay()

    @staticmethod
    def _assert_restored_session_serves(design_setup, timer, root):
        """The same-key call reuses the restored session, bit for bit."""
        _module, design, library, _graph, _alt = design_setup
        loaded = DesignTimer.load(root, design, library=library)
        restored = loaded.monte_carlo_session
        result = loaded.revalidate_monte_carlo(num_samples=300, seed=1, library=library)
        assert loaded.monte_carlo_session is restored  # not a cold rebind
        reference = timer.revalidate_monte_carlo(num_samples=300, seed=1, library=library)
        assert np.array_equal(result.samples, reference.samples)

    def test_session_entry_with_chunk_keys_loads_warm(self, design_setup, saved_bundle):
        # Sessions saved while MonteCarloSession still took chunk_size= and
        # cache_arrivals= carry both in their meta; loading ignores them.
        timer, root = saved_bundle
        path = root / "montecarlo.npz"
        entry = read_entry(path)
        assert "chunk_size" not in entry.meta["session"]
        session = dict(entry.meta["session"], chunk_size=128, cache_arrivals=True)
        write_entry(
            path, entry.kind, entry.graph_id, entry.revision, entry.columns,
            meta=dict(entry.meta, session=session),
        )
        self._assert_restored_session_serves(design_setup, timer, root)

    def test_manifest_with_a_chunk_in_its_mc_key_loads(self, design_setup, saved_bundle):
        # Manifests written while the Monte Carlo key held the chunk size
        # carry [samples, seed, chunk, grid].
        timer, root = saved_bundle
        path = root / "design.npz"
        entry = read_entry(path)
        assert entry.meta["mc_key"] == [300, 1, 0.0]
        write_entry(
            path, entry.kind, entry.graph_id, entry.revision, entry.columns,
            meta=dict(entry.meta, mc_key=[300, 1, 200, 0.0]),
        )
        self._assert_restored_session_serves(design_setup, timer, root)


class TestBundleKeying:
    def test_foreign_design_name_rejected(self, design_setup, saved_bundle):
        _module, design, _library, _graph, _alt = design_setup
        _timer, root = saved_bundle
        foreign = HierarchicalDesign("not_the_design", Die(100.0, 100.0))
        with pytest.raises(StoreKeyError, match=design.name):
            DesignTimer.load(root, foreign)

    def test_mismatched_instance_set_rejected(self, design_setup, saved_bundle):
        module, design, _library, _graph, _alt = design_setup
        _timer, root = saved_bundle
        impostor = HierarchicalDesign(design.name, Die(100.0, 100.0))
        impostor.add_instance(
            ModuleInstance("unexpected", module.model, 0.0, 0.0)
        )
        with pytest.raises(StoreKeyError, match="instance set"):
            DesignTimer.load(root, impostor)
