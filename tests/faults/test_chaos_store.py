"""Chaos suite of the persistence layer: torn writes on real snapshots.

The store plans tear a *really written* session entry — truncation after
the atomic rename, a flipped header bit — and the tests walk the whole
recovery ladder: typed detection, quarantine (evidence preserved under
``*.corrupt``), directory health sweeps, and ``on_corrupt="rebuild"``
cold sessions whose recomputed answers are ``np.array_equal`` to the
undisturbed ones.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import StoreCorruptError
from repro.faults import activate, reset_fault_state
from repro.montecarlo.flat import MonteCarloSession, simulate_graph_delay
from repro.store import (
    Store,
    load_montecarlo_session,
    save_montecarlo_session,
    verify_store,
)

#: Keeps the per-test sample matrices small while spanning several
#: counter blocks.
MC_SAMPLES = 256

STORE_PLANS = ("store-truncate@1:keep=0.6", "store-bitflip@1:seed=11")


@pytest.fixture(autouse=True)
def _fresh_counters():
    reset_fault_state()
    yield
    reset_fault_state()


@pytest.mark.parametrize("plan", STORE_PLANS)
def test_torn_session_entry_quarantines_and_rebuilds(
    tmp_path, parity_module, plan
):
    """c17/mult4/c432: torn write -> typed error -> quarantine -> rebuild.

    The rebuilt session recomputes from the live graph, so its samples are
    ``np.array_equal`` to the session that was (unsuccessfully) saved —
    the counter-based streams make the cold resample exactly reproduce the
    original draw.
    """
    graph, _variation = parity_module
    session = MonteCarloSession(graph, num_samples=MC_SAMPLES, seed=3)
    reference = session.revalidate().samples.copy()
    path = tmp_path / "mc.npz"
    with activate(plan):
        save_montecarlo_session(session, path)

    # Detection: the defensive reader refuses the torn entry, by name.
    with pytest.raises(StoreCorruptError, match="mc.npz"):
        load_montecarlo_session(path, graph=graph)
    assert path.exists()  # on_corrupt="error" leaves the evidence in place

    # Recovery: quarantine + cold rebuild from the live graph.  The
    # default cold session resamples at the session defaults, so compare
    # against a default session rather than the original's geometry.
    rebuilt = load_montecarlo_session(path, graph=graph, on_corrupt="rebuild")
    assert not path.exists()
    quarantined = tmp_path / "mc.npz.corrupt"
    assert quarantined.exists()
    assert rebuilt.store_fallback_reason is not None
    assert "quarantined" in rebuilt.store_fallback_reason
    undisturbed = MonteCarloSession(graph)
    assert np.array_equal(
        rebuilt.revalidate().samples, undisturbed.revalidate().samples
    )

    # The freed name accepts a healthy replacement; the next load is warm
    # and bit-identical to the session that never saw a torn write.
    session_again = MonteCarloSession(graph, num_samples=MC_SAMPLES, seed=3)
    save_montecarlo_session(session_again, path)
    warm = load_montecarlo_session(path, graph=graph)
    assert warm.store_fallback_reason is None
    assert np.array_equal(warm.revalidate().samples, reference)


def test_rebuild_without_live_graph_still_raises(tmp_path, parity_module):
    graph, _variation = parity_module
    session = MonteCarloSession(graph, num_samples=MC_SAMPLES, seed=3)
    path = tmp_path / "mc.npz"
    with activate("store-truncate@1:keep=0.3"):
        save_montecarlo_session(session, path)
    # A corrupt entry cannot supply the graph, so graph=None cannot rebuild.
    with pytest.raises(StoreCorruptError, match="live graph"):
        load_montecarlo_session(path, on_corrupt="rebuild")


@pytest.mark.parametrize("plan", STORE_PLANS)
def test_store_verify_reports_the_torn_entry(tmp_path, parity_module, plan):
    graph, _variation = parity_module
    store = Store(tmp_path)
    healthy_session = MonteCarloSession(graph, num_samples=MC_SAMPLES, seed=1)
    save_montecarlo_session(healthy_session, store.path("healthy"))
    torn_session = MonteCarloSession(graph, num_samples=MC_SAMPLES, seed=2)
    with activate(plan):
        save_montecarlo_session(torn_session, store.path("torn"))

    health = store.verify()
    assert not health.ok
    assert len(health.entries) == 2
    assert len(health.healthy) == 1
    assert health.healthy[0].kind == "montecarlo"
    assert health.healthy[0].graph_id == graph.name
    (corrupt,) = health.corrupt
    assert corrupt.path.name == "torn.npz"
    assert corrupt.error is not None
    assert corrupt.quarantine_path is None  # read-only sweep by default

    # repair=True moves the broken entry aside; the re-sweep is clean.
    repaired = store.verify(repair=True)
    (moved,) = repaired.corrupt
    assert moved.quarantine_path is not None
    assert moved.quarantine_path.exists()
    assert store.verify().ok
    assert "1 corrupt" in str(repaired)


def test_sharded_c7552_sweep_survives_an_armed_store_plan(tmp_path):
    """The torn-write plan end to end on the flagship circuit.

    With a store plan armed the *pool* seam stays untouched: the sharded
    c7552 Monte Carlo sweep completes ``np.array_equal`` to the uninjected
    serial run (clean ``MapReport``), while the session snapshot written
    during the run is torn, detected and quarantined — the quarantine
    record is the proof the plan fired.
    """
    from repro.liberty.library import standard_library
    from repro.netlist.iscas85 import iscas85_surrogate
    from repro.parallel.pool import ShardedExecutor
    from repro.placement.placer import place_netlist
    from repro.timing.builder import build_timing_graph, default_variation_for

    netlist = iscas85_surrogate("c7552")
    library = standard_library()
    placement = place_netlist(netlist, library)
    variation = default_variation_for(netlist, placement)
    graph = build_timing_graph(netlist, library, placement, variation)

    serial = simulate_graph_delay(graph, num_samples=MC_SAMPLES)

    executor = ShardedExecutor(workers=2, engine="auto")
    if executor.engine != "process":
        executor.close()
        pytest.skip("process engine unavailable: %s" % executor.fallback_reason)
    try:
        path = tmp_path / "c7552.npz"
        with activate("store-truncate@1:keep=0.5"):
            sharded = simulate_graph_delay(
                graph,
                num_samples=MC_SAMPLES,
                executor=executor,
            )
            session = MonteCarloSession(graph, num_samples=MC_SAMPLES, seed=0)
            save_montecarlo_session(session, path)
        assert np.array_equal(sharded.samples, serial.samples)
        assert sharded.map_report.clean  # the store plan never touches the pool

        with pytest.raises(StoreCorruptError) as excinfo:
            load_montecarlo_session(path, graph=graph, on_corrupt="error")
        assert excinfo.value.quarantine_path is None
        health = verify_store(tmp_path, repair=True)
        (corrupt,) = health.corrupt
        assert corrupt.quarantine_path is not None  # injection proven
    finally:
        executor.close(timeout=15)
