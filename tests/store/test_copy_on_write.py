"""Copy-on-write warm restarts: restored sessions map their store entry.

The session loaders map each entry once, privately, and the sessions keep
the views they are handed.  The contract checked here:

* a restored session's delay, arrival and tensor arrays own no memory
  before the first edit; their base chain ends at the entry's mapping;
* seeded retimes through a restored session and one that never restarted
  leave the two ``np.array_equal`` (``==`` on canonical forms), and the
  entry files keep their bytes;
* entries written by ``np.savez`` (before the aligned layout) load by
  copying, with the same bits;
* a restore allocates almost nothing and holds one descriptor per entry;
* an entry whose column data is cut short fails at read time.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import random
import tracemalloc
import zipfile

import numpy as np
import pytest

from repro.errors import StoreCorruptError
from repro.experiments.config import ExperimentConfig
from repro.experiments.figure7 import build_multiplier_design, build_multiplier_module
from repro.hier.analysis import DesignTimer
from repro.liberty.library import standard_library
from repro.model.extraction import ExtractionSession
from repro.montecarlo.flat import MonteCarloSession
from repro.netlist.iscas85 import iscas85_surrogate
from repro.placement.placer import place_netlist
from repro.store import (
    load_allpairs_session,
    load_design_timer,
    load_extraction_session,
    load_incremental_timer,
    load_montecarlo_session,
    read_entry,
    save_allpairs_session,
    save_extraction_session,
    save_incremental_timer,
    save_montecarlo_session,
    write_entry,
)
from repro.timing.allpairs import AllPairsSession
from repro.timing.builder import build_timing_graph, default_variation_for
from repro.timing.incremental import IncrementalTimer

THRESHOLD = 0.05
ROUNDS = 3
SEED = 11

#: Snapshot columns a restored session patches in place: the ones that
#: must come back as views of the entry's mapping.
PATCHED = ("arrays.edge_", "fwd.", "bwd.", "ap.", "mc.delays", "mc.arrivals")


@pytest.fixture(scope="module")
def c432():
    """Pristine ``(graph, variation)`` of the c432 surrogate (copy() it)."""
    library = standard_library()
    netlist = iscas85_surrogate("c432")
    placement = place_netlist(netlist, library)
    variation = default_variation_for(netlist, placement)
    return build_timing_graph(netlist, library, placement, variation), variation


@pytest.fixture(scope="module")
def mult4():
    """A characterized 4x4 multiplier module, its design and full graph."""
    library = standard_library()
    module = build_multiplier_module(bits=4, config=ExperimentConfig(monte_carlo_samples=400))
    graph = build_timing_graph(
        module.netlist, library, module.placement, module.variation,
        name=module.netlist.name,
    )
    return module, build_multiplier_design(module), library, graph


def _sha256(paths):
    return {str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}


def _mapping(array):
    """The object at the end of ``array``'s base chain (``None`` if owned)."""
    base = array
    while isinstance(base, np.ndarray):
        base = base.base
    return base


def _patched_columns(session):
    columns, _meta = session.snapshot_state()
    columns.update(session.arrays.snapshot_columns())
    return {
        name: array for name, array in columns.items() if name.startswith(PATCHED)
    }


def _assert_views_of(path, columns):
    """Every array is a view of one mapping of the whole entry at ``path``."""
    assert columns
    mappings = set()
    for name, array in columns.items():
        assert not array.flags.owndata, name
        assert array.flags.writeable, name
        mapping = _mapping(array)
        assert isinstance(mapping, mmap.mmap), name
        assert array.ctypes.data % 64 == 0, name
        mappings.add(id(mapping))
    assert len(mappings) == 1
    assert len(mapping) == path.stat().st_size


def _assert_same_state(live, restored):
    left, _ = live.snapshot_state()
    right, _ = restored.snapshot_state()
    assert sorted(left) == sorted(right)
    for name in left:
        assert np.array_equal(left[name], right[name]), name
        assert left[name].dtype == right[name].dtype, name


def _retime(graphs, rng):
    """Scale three seeded edges by the same factors in every graph."""
    num_edges = graphs[0].num_edges
    for _ in range(3):
        index = rng.randrange(num_edges)
        factor = rng.uniform(0.8, 1.2)
        for graph in graphs:
            edge = graph.edges[index]
            graph.replace_edge_delay(edge, edge.delay.scale(factor))


def _same_model(left, right):
    def edges(model):
        return sorted(((e.source, e.sink), e.delay) for e in model.graph.edges)

    return [key for key, _ in edges(left)] == [key for key, _ in edges(right)] and all(
        x == y for (_, x), (_, y) in zip(edges(left), edges(right))
    )


# ----------------------------------------------------------------------
# One session kind at a time, restored against the live graph
# ----------------------------------------------------------------------
def _timer(graph, _variation):
    timer = IncrementalTimer(graph)
    timer.update()
    return timer


def _allpairs(graph, _variation):
    return AllPairsSession(graph)


def _montecarlo(graph, _variation):
    session = MonteCarloSession(graph, num_samples=256, seed=3)
    session.revalidate()
    return session


def _extraction(graph, variation):
    session = ExtractionSession(graph, variation)
    session.extract(THRESHOLD)
    return session


def _step_timer(timer):
    return timer.circuit_delay()


def _step_allpairs(session):
    session.refresh()


def _step_montecarlo(session):
    return session.revalidate().samples


def _step_extraction(session):
    session.refresh()
    return session.extract(THRESHOLD)


KINDS = {
    "timer": (_timer, save_incremental_timer, load_incremental_timer, _step_timer),
    "allpairs": (_allpairs, save_allpairs_session, load_allpairs_session, _step_allpairs),
    "montecarlo": (
        _montecarlo, save_montecarlo_session, load_montecarlo_session, _step_montecarlo,
    ),
    "extraction": (
        _extraction, save_extraction_session, load_extraction_session, _step_extraction,
    ),
}


def _state_owner(session):
    """The session whose snapshot holds the patched arrays."""
    return session.allpairs if isinstance(session, ExtractionSession) else session


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_restored_session_maps_its_entry_and_replays_bit_identically(
    c432, tmp_path, kind
):
    build, save, load, step = KINDS[kind]
    graph = c432[0].copy()
    live = build(graph, c432[1])
    path = save(live, tmp_path / ("%s.npz" % kind))
    before = _sha256([path])

    restored = load(path, graph=graph)
    assert restored.store_fallback_reason is None
    _assert_views_of(path, _patched_columns(_state_owner(restored)))

    rng = random.Random(SEED)
    for _round in range(ROUNDS):
        _retime([graph], rng)
        left, right = step(live), step(restored)
        if isinstance(left, np.ndarray):
            assert np.array_equal(left, right)
        elif kind == "extraction":
            assert _same_model(left, right)
        else:
            assert left == right
        _assert_same_state(_state_owner(live), _state_owner(restored))
    assert _sha256([path]) == before


def test_design_bundle_maps_its_entries_and_replays_bit_identically(mult4, tmp_path):
    module, design, library, module_graph = mult4
    instance = design.instances[0].name
    live = DesignTimer(design)
    live.circuit_delay()
    live.revalidate_monte_carlo(num_samples=300, seed=1, library=library)
    live.attach_module_source(instance, module_graph.copy(), module.variation)
    root = live.save(tmp_path / "bundle")
    entries = sorted(root.rglob("*.npz"))
    before = _sha256(entries)

    restored = load_design_timer(root, design, library=library)
    _assert_views_of(root / "timer.npz", _patched_columns(restored.timer))
    _assert_views_of(root / "montecarlo.npz", _patched_columns(restored.monte_carlo_session))
    extraction = restored.extraction_session(instance)
    _assert_views_of(
        root / "extraction" / ("%s.npz" % instance), _patched_columns(extraction.allpairs)
    )

    sides = (live, restored)
    rng = random.Random(SEED)
    for _round in range(ROUNDS):
        _retime([side.extraction_session(instance).graph for side in sides], rng)
        delays, samples, models = [], [], []
        for side in sides:
            session = side.extraction_session(instance)
            session.refresh()
            model = session.extract(THRESHOLD)
            side.swap_instance_model(
                instance, model, netlist=module.netlist, placement=module.placement
            )
            models.append(model)
            delays.append(side.circuit_delay())
            samples.append(
                side.revalidate_monte_carlo(num_samples=300, seed=1, library=library).samples
            )
        assert _same_model(*models)
        assert delays[0] == delays[1]
        assert np.array_equal(samples[0], samples[1])
        _assert_same_state(live.timer, restored.timer)
        _assert_same_state(
            live.extraction_session(instance).allpairs, extraction.allpairs
        )
    assert _sha256(entries) == before


# ----------------------------------------------------------------------
# Layout: aligned new entries, copied legacy entries
# ----------------------------------------------------------------------
def test_new_entries_align_every_column_and_stay_plain_npz(c432, tmp_path):
    session = _montecarlo(c432[0].copy(), None)
    path = save_montecarlo_session(session, tmp_path / "mc.npz")
    mapped = read_entry(path, mmap=True).columns
    assert len(mapped) > 10
    for name, array in mapped.items():
        if isinstance(array, np.memmap):
            assert array.ctypes.data % 64 == 0, name
    stored = read_entry(path).columns
    with np.load(path) as archive:
        for name, array in stored.items():
            assert np.array_equal(archive[name], array), name
            assert archive[name].dtype == array.dtype, name


def test_legacy_savez_entry_restores_by_copying(c432, tmp_path):
    graph = c432[0].copy()
    live = _montecarlo(graph, None)
    path = save_montecarlo_session(live, tmp_path / "mc.npz")
    with np.load(path) as archive:
        members = {name: archive[name] for name in archive.files}
    legacy = tmp_path / "legacy.npz"
    with open(legacy, "wb") as handle:
        np.savez(handle, **members)
    before = _sha256([legacy])

    restored = load_montecarlo_session(legacy, graph=graph)
    copied = 0
    for name, array in _patched_columns(restored).items():
        # np.savez does not align: a column lands on a 64-byte boundary
        # only by chance, and only such a column may be mapped.
        mapped = isinstance(_mapping(array), mmap.mmap)
        assert not mapped or array.ctypes.data % 64 == 0, name
        copied += not mapped
    assert copied
    rng = random.Random(SEED)
    for _round in range(ROUNDS):
        _retime([graph], rng)
        assert np.array_equal(live.revalidate().samples, restored.revalidate().samples)
        _assert_same_state(live, restored)
    assert _sha256([legacy]) == before


# ----------------------------------------------------------------------
# Memory and descriptors
# ----------------------------------------------------------------------
def test_montecarlo_load_allocates_under_five_percent_of_its_matrices(c432, tmp_path):
    graph = c432[0].copy()
    session = MonteCarloSession(graph, num_samples=8192, seed=3)
    session.revalidate()
    matrices = session.snapshot_state()[0]
    matrix_bytes = matrices["mc.delays"].nbytes + matrices["mc.arrivals"].nbytes
    assert matrix_bytes >= 32 * 2**20
    path = save_montecarlo_session(session, tmp_path / "mc.npz")

    tracemalloc.start()
    try:
        restored = MonteCarloSession.load(path, graph=graph)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * matrix_bytes
    assert np.array_equal(restored.revalidate().samples, session.revalidate().samples)


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd on this host"
)
def test_restores_hold_at_most_one_descriptor_per_entry(mult4, tmp_path):
    module, design, library, module_graph = mult4
    timer = DesignTimer(design)
    timer.circuit_delay()
    timer.revalidate_monte_carlo(num_samples=300, seed=1, library=library)
    timer.attach_module_source(design.instances[0].name, module_graph.copy(), module.variation)
    root = timer.save(tmp_path / "bundle")
    mc_path = save_montecarlo_session(_montecarlo(module_graph.copy(), None), tmp_path / "mc.npz")
    entries = len(list(root.rglob("*.npz"))) + 1

    before = len(os.listdir("/proc/self/fd"))
    restored = (
        load_design_timer(root, design, library=library),
        load_montecarlo_session(mc_path),
    )
    held = len(os.listdir("/proc/self/fd")) - before
    assert 0 < held <= entries
    assert restored[0].circuit_delay() == timer.circuit_delay()


# ----------------------------------------------------------------------
# Torn entries fail at read time
# ----------------------------------------------------------------------
#: The large column of each kind whose data the torn-entry tests cut.
TORN_COLUMN = {
    "timer": "fwd.corr",
    "allpairs": "ap.arrival_corr",
    "montecarlo": "mc.delays",
    "extraction": "ap.arrival_corr",
}


def _data_range(path, name):
    """``(start, end)`` file offsets of column ``name``'s array data."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(name + ".npy")
    with open(path, "rb") as handle:
        handle.seek(info.header_offset)
        local = handle.read(30)
        member = (
            info.header_offset + 30
            + int.from_bytes(local[26:28], "little")
            + int.from_bytes(local[28:30], "little")
        )
        handle.seek(member)
        np.lib.format.read_magic(handle)
        np.lib.format.read_array_header_1_0(handle)
        return handle.tell(), member + info.compress_size


def _overrun_header(path, name):
    """Make column ``name``'s ``.npy`` header declare more rows than stored."""
    start, _end = _data_range(path, name)
    data = bytearray(path.read_bytes())
    header_start = data.rindex(b"'shape': (", 0, start) + len(b"'shape': (")
    digits_end = header_start
    while data[digits_end : digits_end + 1].isdigit():
        digits_end += 1
    data[header_start:digits_end] = b"9" * (digits_end - header_start)
    path.write_bytes(bytes(data))


def _saved(kind, c432, tmp_path):
    build, save, _load, _step = KINDS[kind]
    graph = c432[0].copy()
    path = save(build(graph, c432[1]), tmp_path / ("%s.npz" % kind))
    return graph, path


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("tear", ["truncated", "overrun"])
def test_cut_column_raises_from_reader_and_loader(c432, tmp_path, kind, tear):
    graph, path = _saved(kind, c432, tmp_path)
    if tear == "truncated":
        start, end = _data_range(path, TORN_COLUMN[kind])
        os.truncate(path, (start + end) // 2)
    else:
        _overrun_header(path, TORN_COLUMN[kind])
    for mapped in (False, True):
        with pytest.raises(StoreCorruptError, match=path.name):
            read_entry(path, mmap=mapped)
    with pytest.raises(StoreCorruptError, match=path.name):
        KINDS[kind][2](path, graph=graph)


@pytest.mark.parametrize("tear", ["truncated", "overrun"])
def test_cut_bundle_column_raises_from_design_loader(mult4, tmp_path, tear):
    module, design, library, module_graph = mult4
    timer = DesignTimer(design)
    timer.circuit_delay()
    root = timer.save(tmp_path / "bundle")
    path = root / "timer.npz"
    if tear == "truncated":
        start, end = _data_range(path, "fwd.corr")
        os.truncate(path, (start + end) // 2)
    else:
        _overrun_header(path, "fwd.corr")
    with pytest.raises(StoreCorruptError, match="timer.npz"):
        load_design_timer(root, design, library=library)


def test_column_header_overrun_is_named(tmp_path):
    path = write_entry(
        tmp_path / "e.npz", "timer", "g", 0,
        {"a": np.arange(128, dtype=float), "b": np.arange(4096, dtype=float)},
    )
    _overrun_header(path, "a")
    with pytest.raises(StoreCorruptError, match="column 'a' declares"):
        read_entry(path, mmap=True)
