"""Chaos suite of the execution layer: real sweeps under armed fault plans.

Every test arms one ``REPRO_FAULT_PLAN``, runs a *real* analysis — the
sharded c7552 Monte Carlo sweep, or the c17/mult4/c432 MC + corner
sweeps — through a fresh 2-worker pool, and asserts the strongest
property the design claims: the recovered results are
``np.array_equal`` to an undisturbed serial run, and the
:class:`~repro.parallel.pool.MapReport` plus the consumed fuse prove the
fault actually fired (no vacuous passes).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import FAULT_PLAN_ENV
from repro.montecarlo.flat import simulate_graph_delay
from repro.parallel.pool import TASK_TIMEOUT_ENV
from repro.timing.arrays import GraphArrays
from repro.timing.sta import corner_sweep

#: Offsets of every chaos corner sweep (enough tasks that both workers
#: stay busy while one of them is being killed, hung or failed).
OFFSETS = [-3.0 + 0.5 * index for index in range(13)]

#: Sample count of the per-circuit Monte Carlo sweeps: four counter
#: blocks, so two workers get two block-aligned ranges each.
MC_SAMPLES = 512

#: The three pool fault kinds; the hang sleeps far past every deadline
#: used here, so only timeout-driven recovery can finish the run.
POOL_PLANS = ("worker-crash", "worker-hang", "task-raise")


def _arm(monkeypatch, fuse, kind, nth=1, timeout="20"):
    """Arm one fused pool plan plus a harvest deadline.

    Only the hang needs the deadline: its sleep outlives any liveness
    signal.  A crash is detected from the pool's worker PIDs within a few
    polls, so for the crash and the raise the deadline is only the
    suite's safety bound against a wedged run.
    """
    plan = "%s@%d:fuse=%s" % (kind, nth, fuse)
    if kind == "worker-hang":
        plan += ",seconds=300"
    monkeypatch.setenv(TASK_TIMEOUT_ENV, timeout)
    monkeypatch.setenv(FAULT_PLAN_ENV, plan)


def _assert_disturbed(report, fuse, kind):
    """The non-vacuousness contract: the fault fired and was recovered."""
    assert not fuse.exists(), "fault plan never fired (fuse still armed)"
    assert not report.clean
    if kind == "task-raise":
        assert report.failures >= 1
        assert report.retries >= 1
    else:  # crash and hang both surface as a lost/timed-out harvest
        assert report.timeouts >= 1
        assert report.respawns >= 1
    assert report.attempts >= report.tasks


# ----------------------------------------------------------------------
# The flagship: sharded c7552 Monte Carlo under every pool plan
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def c7552_graph():
    """The largest ISCAS85 surrogate, placed and characterized once."""
    from repro.liberty.library import standard_library
    from repro.netlist.iscas85 import iscas85_surrogate
    from repro.placement.placer import place_netlist
    from repro.timing.builder import build_timing_graph, default_variation_for

    netlist = iscas85_surrogate("c7552")
    library = standard_library()
    placement = place_netlist(netlist, library)
    variation = default_variation_for(netlist, placement)
    return build_timing_graph(netlist, library, placement, variation)


@pytest.mark.parametrize("kind", POOL_PLANS)
def test_c7552_mc_sweep_recovers_bit_identically(
    monkeypatch, chaos_executor_factory, fuse_file, c7552_graph, kind
):
    arrays = GraphArrays.of(c7552_graph)  # held: both runs share one view
    reference = simulate_graph_delay(c7552_graph, num_samples=MC_SAMPLES)
    assert reference.map_report is None  # undisturbed serial baseline

    _arm(monkeypatch, fuse_file, kind, timeout="15")
    executor = chaos_executor_factory()
    result = simulate_graph_delay(
        c7552_graph, num_samples=MC_SAMPLES, executor=executor
    )
    assert GraphArrays.of(c7552_graph) is arrays
    assert np.array_equal(result.samples, reference.samples)
    _assert_disturbed(result.map_report, fuse_file, kind)


# ----------------------------------------------------------------------
# The circuit matrix: c17/mult4/c432 MC + corner sweeps, every plan
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", POOL_PLANS)
def test_corner_sweep_recovers(
    monkeypatch, chaos_executor_factory, fuse_file, parity_module, kind
):
    graph, _variation = parity_module
    reference = corner_sweep(OFFSETS, graph=graph)

    _arm(monkeypatch, fuse_file, kind, nth=2, timeout="6")
    executor = chaos_executor_factory()
    swept = corner_sweep(OFFSETS, graph=graph, executor=executor)
    assert np.array_equal(swept, reference)
    _assert_disturbed(executor.last_report, fuse_file, kind)


@pytest.mark.parametrize("kind", POOL_PLANS)
def test_mc_sweep_recovers(
    monkeypatch, chaos_executor_factory, fuse_file, parity_module, kind
):
    graph, _variation = parity_module
    reference = simulate_graph_delay(graph, num_samples=MC_SAMPLES)

    _arm(monkeypatch, fuse_file, kind, timeout="6")
    executor = chaos_executor_factory()
    result = simulate_graph_delay(
        graph, num_samples=MC_SAMPLES, executor=executor
    )
    assert np.array_equal(result.samples, reference.samples)
    _assert_disturbed(result.map_report, fuse_file, kind)


# ----------------------------------------------------------------------
# Degradation end state: retries exhausted -> serial, still correct
# ----------------------------------------------------------------------
def test_raise_with_no_retry_budget_degrades_to_serial(
    monkeypatch, chaos_executor_factory, parity_module
):
    """An unfused raise with ``REPRO_TASK_RETRIES=0`` leaves no middle
    rung: the first task each worker sees fails once and must finish on
    the parent's serial engine — the last step of the recovery ladder."""
    graph, _variation = parity_module
    reference = corner_sweep(OFFSETS, graph=graph)

    monkeypatch.setenv(FAULT_PLAN_ENV, "task-raise@1")
    monkeypatch.setenv("REPRO_TASK_RETRIES", "0")
    executor = chaos_executor_factory()
    swept = corner_sweep(OFFSETS, graph=graph, executor=executor)
    assert np.array_equal(swept, reference)
    report = executor.last_report
    assert report.degraded >= 1
    assert report.failures >= 1
    assert report.retries == 0
    assert report.fallback_reason is not None
    assert "failed" in report.fallback_reason


def test_clean_run_reports_clean(chaos_executor_factory, parity_module):
    graph, _variation = parity_module
    executor = chaos_executor_factory()
    swept = corner_sweep(OFFSETS, graph=graph, executor=executor)
    report = executor.last_report
    assert report.clean
    assert report.attempts == report.tasks == len(OFFSETS)
    assert np.array_equal(swept, corner_sweep(OFFSETS, graph=graph))
