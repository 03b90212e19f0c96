"""Property-based parity suite of the levelized Monte Carlo kernels.

The level-scheduled kernels replace only the *order* in which per-sample
longest-path candidates are folded — ``+`` and ``max`` are exact, so on
*any* graph the simulators must produce **bit-identical** results to the
object-level reference ``_longest_paths_object`` (``tests/oracles.py``)
run on the same ``_sample_delay_range`` delays (the ``mc_reference``
fixture).  Asserted here on hypothesis-randomized layered DAGs (including
dangling inputs, unreachable vertices and single-IO corners), on the
multi-source ``(V, g, chunk)`` kernel against the
one-propagation-per-input reference for every input-group size, and on
the empty-IO / unreachable regressions.
"""

import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import _longest_paths_object
from repro.core.canonical import CanonicalForm
from repro.errors import TimingGraphError
from repro.montecarlo import flat
from repro.montecarlo.flat import (
    MC_MAX_CHUNK,
    MC_MIN_CHUNK,
    MC_SAMPLE_BLOCK,
    _multi_source_groups,
    auto_chunk_size,
    simulate_graph_delay,
    simulate_io_delays,
)
from repro.timing.arrays import GraphArrays
from repro.timing.graph import TimingGraph

NUM_LOCALS = 2


def _build_graph(seed, num_inputs, num_outputs, num_internal):
    """A random layered DAG with designated inputs/outputs.

    Every non-input vertex receives 1-3 fanin edges from topologically
    earlier non-output vertices, so each output is reachable while some
    inputs (and internal vertices) may dangle — which exercises the
    ``-inf`` masking and the structural validity masks of the kernels.
    """
    rng = np.random.default_rng(seed)
    graph = TimingGraph("mc%d" % seed, NUM_LOCALS)
    inputs = ["i%d" % position for position in range(num_inputs)]
    outputs = ["o%d" % position for position in range(num_outputs)]
    internal = ["v%d" % position for position in range(num_internal)]
    for name in inputs:
        graph.mark_input(name)
    for name in outputs:
        graph.mark_output(name)
    sources = inputs + internal  # outputs stay pure sinks

    def _delay():
        return CanonicalForm(
            float(rng.uniform(1.0, 20.0)),
            float(rng.uniform(0.0, 1.5)),
            [float(value) for value in rng.uniform(-1.0, 1.0, NUM_LOCALS)],
            float(rng.uniform(0.0, 1.5)),
        )

    for position, name in enumerate(internal + outputs):
        limit = num_inputs + min(position, num_internal)
        for _unused in range(int(rng.integers(1, 4))):
            graph.add_edge(sources[int(rng.integers(0, limit))], name, _delay())
    return graph


def _assert_io_identical(a, b):
    assert np.array_equal(a.valid, b.valid)
    assert np.array_equal(a.means, b.means, equal_nan=True)
    assert np.array_equal(a.stds, b.stds, equal_nan=True)


class TestRandomizedParity:
    @given(
        seed=st.integers(min_value=0, max_value=10 ** 6),
        num_inputs=st.integers(min_value=1, max_value=5),
        num_outputs=st.integers(min_value=1, max_value=4),
        num_internal=st.integers(min_value=0, max_value=24),
        chunk=st.sampled_from([None, MC_SAMPLE_BLOCK, 2 * MC_SAMPLE_BLOCK]),
    )
    @settings(max_examples=25, deadline=None)
    def test_graph_delay_engines_bit_identical(
        self, mc_reference, seed, num_inputs, num_outputs, num_internal, chunk
    ):
        graph = _build_graph(seed, num_inputs, num_outputs, num_internal)
        with pytest.MonkeyPatch.context() as patch:
            if chunk is not None:  # the budget that runs ``chunk`` samples at a time
                budget = chunk * (graph.num_vertices + 2 * graph.num_edges)
                patch.setattr(flat, "MC_CHUNK_BUDGET_FLOATS", budget)
            levelized = simulate_graph_delay(graph, 300, seed=seed)
        reference = mc_reference.graph_delay(graph, 300, seed)
        assert np.array_equal(levelized.samples, reference)

    @given(
        seed=st.integers(min_value=0, max_value=10 ** 6),
        num_inputs=st.integers(min_value=1, max_value=5),
        num_outputs=st.integers(min_value=1, max_value=4),
        num_internal=st.integers(min_value=0, max_value=24),
    )
    @settings(max_examples=25, deadline=None)
    def test_io_delay_engines_bit_identical(
        self, mc_reference, seed, num_inputs, num_outputs, num_internal
    ):
        graph = _build_graph(seed, num_inputs, num_outputs, num_internal)
        levelized = simulate_io_delays(graph, 40, seed=seed)
        reference = mc_reference.io_delays(graph, 40, seed)
        _assert_io_identical(levelized, reference)

    @given(
        seed=st.integers(min_value=0, max_value=10 ** 6),
        group_size=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=15, deadline=None)
    def test_multi_source_kernel_matches_per_input_reference(self, seed, group_size):
        graph = _build_graph(seed, 4, 3, 12)
        arrays = GraphArrays.from_graph(graph)
        rng = np.random.default_rng(seed)
        delays = arrays.edge_batch.sample(rng, 23)
        input_rows = arrays.input_rows
        covered = []
        for low, high, multi in _multi_source_groups(
            arrays, delays, input_rows, group_size
        ):
            assert multi.shape == (arrays.num_vertices, high - low, 23)
            for position in range(low, high):
                reference = _longest_paths_object(
                    arrays, delays, input_rows[position : position + 1]
                )
                assert np.array_equal(multi[:, position - low, :], reference)
                covered.append(position)
        assert covered == list(range(input_rows.shape[0]))


class TestAcceptanceCircuits:
    @pytest.mark.parametrize("group", ["one", "ragged", "whole"])
    def test_engines_bit_identical_on_parity_modules(
        self, parity_module, io_group, mc_reference, group
    ):
        graph = parity_module[0]
        levelized = simulate_graph_delay(graph, 200, seed=9)
        assert np.array_equal(
            levelized.samples, mc_reference.graph_delay(graph, 200, 9)
        )
        # Input groups of any size reproduce the whole-axis pass exactly,
        # at any chunk, and so does the per-input object loop.
        io_group(graph, "whole", 300)
        whole = simulate_io_delays(graph, 300, seed=9)
        _assert_io_identical(mc_reference.io_delays(graph, 300, 9), whole)
        io_group(graph, group, 300)
        _assert_io_identical(simulate_io_delays(graph, 300, seed=9), whole)
        io_group(graph, "whole", 300, chunk=2 * MC_SAMPLE_BLOCK)
        _assert_io_identical(simulate_io_delays(graph, 300, seed=9), whole)

    def test_prebuilt_arrays_reuse_is_bit_identical(self, parity_module):
        graph = parity_module[0]
        rebuilt = simulate_graph_delay(graph, 200, seed=9)
        rebuilt_io = simulate_io_delays(graph, 60, seed=9)
        # A held view is reused by both simulators, schedules and all.
        arrays = GraphArrays.of(graph)
        reused = simulate_graph_delay(graph, 200, seed=9)
        reused_io = simulate_io_delays(graph, 60, seed=9)
        assert GraphArrays.of(graph) is arrays
        assert np.array_equal(rebuilt.samples, reused.samples)
        _assert_io_identical(rebuilt_io, reused_io)


class TestRegressions:
    def test_missing_io_raises(self):
        graph = TimingGraph("no_io")
        graph.add_edge("a", "b", CanonicalForm.constant(1.0))
        with pytest.raises(TimingGraphError):
            simulate_graph_delay(graph, 10)
        with pytest.raises(TimingGraphError):
            simulate_io_delays(graph, 10)
        graph.mark_input("a")  # outputs still missing
        with pytest.raises(TimingGraphError):
            simulate_graph_delay(graph, 10)

    def test_unreachable_vertices_stay_masked(self, mc_reference):
        """Dangling inputs and unreachable outputs must not poison stats."""
        graph = TimingGraph("partial")
        graph.mark_input("a")
        graph.mark_input("b")  # dangling: drives nothing
        graph.mark_output("y")
        graph.mark_output("z")  # unreachable: driven by nothing
        graph.add_edge("a", "m", CanonicalForm.constant(3.0))
        graph.add_edge("m", "y", CanonicalForm.constant(4.0))
        graph.add_vertex("orphan")
        reference = mc_reference.io_delays(graph, 32, 1)
        for stats in (simulate_io_delays(graph, 32, seed=1), reference):
            assert stats.valid.tolist() == [[True, False], [False, False]]
            assert stats.mean("a", "y") == pytest.approx(7.0)
            assert np.isnan(stats.mean("b", "y"))
            assert np.isnan(stats.mean("a", "z"))
        result = simulate_graph_delay(graph, 32, seed=1)
        for samples in (result.samples, mc_reference.graph_delay(graph, 32, 1)):
            assert np.all(samples == pytest.approx(7.0))

    def test_io_statistics_reject_unknown_names(self):
        graph = TimingGraph("tiny_io")
        graph.mark_input("a")
        graph.mark_output("z")
        graph.add_edge("a", "z", CanonicalForm.constant(2.0))
        stats = simulate_io_delays(graph, 16, seed=0)
        assert stats.mean("a", "z") == pytest.approx(2.0)
        assert stats.std("a", "z") == pytest.approx(0.0)
        with pytest.raises(ValueError):
            stats.mean("nope", "z")
        with pytest.raises(ValueError):
            stats.std("a", "nope")

    def test_input_that_is_also_output(self, mc_reference):
        graph = TimingGraph("through")
        graph.mark_input("a")
        graph.mark_output("a")
        graph.mark_output("z")
        graph.add_edge("a", "z", CanonicalForm.constant(5.0))
        result = simulate_graph_delay(graph, 16, seed=2)
        for samples in (result.samples, mc_reference.graph_delay(graph, 16, 2)):
            assert np.all(samples == pytest.approx(5.0))

    def test_small_multiplier_matches_object_reference(self, library, mc_reference):
        """A module under 48 edges, where the object loop used to run."""
        from repro.netlist.multiplier import array_multiplier
        from repro.placement.placer import place_netlist
        from repro.timing.builder import build_timing_graph, default_variation_for

        netlist = array_multiplier(2)
        placement = place_netlist(netlist, library)
        variation = default_variation_for(netlist, placement)
        graph = build_timing_graph(netlist, library, placement, variation)
        assert graph.num_edges < 48
        result = simulate_graph_delay(graph, 1000, seed=1)
        assert np.array_equal(result.samples, mc_reference.graph_delay(graph, 1000, 1))
        _assert_io_identical(
            simulate_io_delays(graph, 1000, seed=1),
            mc_reference.io_delays(graph, 1000, 1),
        )

    def test_entry_points_take_no_engine(self):
        # Nor a size: chunks and the arrival cache derive from the budgets.
        from repro.analysis.yield_analysis import monte_carlo_yield_curve
        from repro.experiments.config import ExperimentConfig
        from repro.hier.analysis import DesignTimer
        from repro.montecarlo.flat import MonteCarloSession
        from repro.montecarlo.hierarchical import monte_carlo_hierarchical

        for entry in (
            simulate_graph_delay,
            simulate_io_delays,
            MonteCarloSession,
            monte_carlo_hierarchical,
            monte_carlo_yield_curve,
            DesignTimer.revalidate_monte_carlo,
        ):
            parameters = set(inspect.signature(entry).parameters)
            assert not {"engine", "chunk_size", "cache_arrivals"} & parameters, entry
        fields = {field.name for field in dataclasses.fields(ExperimentConfig)}
        assert not {"monte_carlo_engine", "monte_carlo_chunk"} & fields

    @pytest.mark.parametrize(
        "entry_name",
        [
            "simulate_graph_delay",
            "simulate_io_delays",
            "MonteCarloSession",
            "monte_carlo_hierarchical",
            "monte_carlo_yield_curve",
            "DesignTimer.revalidate_monte_carlo",
        ],
    )
    def test_stale_positional_chunk_is_rejected(self, entry_name):
        # Whatever followed the chunk argument is keyword-only, so an old
        # call's positional chunk raises instead of binding to ``workers``,
        # ``library`` or ``periods``.  Checked by binding alone: a
        # regression must not start a 1000-worker run.
        from repro.analysis.yield_analysis import monte_carlo_yield_curve
        from repro.hier.analysis import DesignTimer
        from repro.montecarlo.flat import MonteCarloSession
        from repro.montecarlo.hierarchical import monte_carlo_hierarchical

        entry, leading = {
            "simulate_graph_delay": (simulate_graph_delay, ("graph",)),
            "simulate_io_delays": (simulate_io_delays, ("graph",)),
            "MonteCarloSession": (MonteCarloSession, ("graph",)),
            "monte_carlo_hierarchical": (monte_carlo_hierarchical, ("design",)),
            "monte_carlo_yield_curve": (monte_carlo_yield_curve, ("source",)),
            "DesignTimer.revalidate_monte_carlo": (
                DesignTimer.revalidate_monte_carlo,
                ("timer",),
            ),
        }[entry_name]
        signature = inspect.signature(entry)
        signature.bind(*leading, 1000, 0)
        with pytest.raises(TypeError):
            signature.bind(*leading, 1000, 0, 1000)


class TestAutoChunkSize:
    def test_bounds_and_clipping(self):
        assert auto_chunk_size(10, 10) == MC_MAX_CHUNK
        assert auto_chunk_size(10, 10, num_samples=100) == 100
        # A huge multi-source working set drops below the floor: the
        # budget outranks MC_MIN_CHUNK but never the sample block — the
        # sampler materialises whole blocks regardless, so a smaller chunk
        # only adds redundant draws.
        assert auto_chunk_size(10 ** 6, 10 ** 6, num_sources=500) == (
            MC_SAMPLE_BLOCK
        )

    def test_budget_always_bounds_the_working_set(self):
        # At every extreme geometry the chosen chunk's working set honours
        # the float budget whenever a whole-block chunk can (one sample
        # block is the hard floor: the sampler's own working set), and the
        # chunk covers whole sample blocks so no block is drawn twice.
        from repro.montecarlo.flat import mc_chunk_budget

        budget = mc_chunk_budget()
        for edges, vertices, sources in [
            (10 ** 6, 5 * 10 ** 5, 1),
            (10 ** 6, 10 ** 6, 32),
            (10 ** 5, 10 ** 5, 500),
            (10, 10, 1),
        ]:
            chunk = auto_chunk_size(edges, vertices, num_sources=sources)
            per_sample = edges + (vertices + edges) * sources
            assert chunk >= MC_SAMPLE_BLOCK
            assert chunk % MC_SAMPLE_BLOCK == 0
            assert chunk * per_sample <= max(
                budget, MC_SAMPLE_BLOCK * per_sample
            )

    def test_small_budget_shrinks_chunk(self, monkeypatch):
        # The sizer reads the budget on every call.
        monkeypatch.setattr(flat, "MC_CHUNK_BUDGET_FLOATS", 100)
        assert auto_chunk_size(10 ** 4, 10 ** 4) == MC_SAMPLE_BLOCK

    def test_million_edge_chunk_stays_block_aligned(self):
        # Regression for the 10^6-edge throughput collapse: the budget
        # used to drive the chunk to 1 here, so every chunk re-drew its
        # whole 128-sample block for one column (~27x redundant sampling
        # on a generated 10^6-edge pipeline design).
        assert auto_chunk_size(10 ** 6, 5 * 10 ** 5) == MC_SAMPLE_BLOCK
        # num_samples still clips last: short runs keep one exact chunk.
        assert auto_chunk_size(10 ** 6, 5 * 10 ** 5, num_samples=16) == 16

    def test_multi_source_axis_shrinks_the_chunk(self):
        single = auto_chunk_size(5000, 3000, num_sources=1)
        multi = auto_chunk_size(5000, 3000, num_sources=100)
        assert multi < single

    def test_io_working_set_honours_the_budget(self, library, monkeypatch):
        # The (V, g, chunk) arrival block is sized to the budget: at an
        # 8 MB budget c880's 60 inputs go six per pass, and the whole run
        # peaks within twice the budget (all 60 at once would take ~60 MB).
        import tracemalloc

        from repro.experiments.table1 import characterize_circuit

        graph = characterize_circuit("c880", library=library).graph
        budget = 1 << 20
        monkeypatch.setattr(flat, "MC_CHUNK_BUDGET_FLOATS", budget)
        tracemalloc.start()
        try:
            simulate_io_delays(graph, 512, seed=1)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * budget * 8, "peak %.1f MB" % (peak / 2.0 ** 20)

    def test_auto_chunk_is_deterministic(self, adder_graph):
        a = simulate_graph_delay(adder_graph, 300, seed=6)
        b = simulate_graph_delay(adder_graph, 300, seed=6)
        assert np.array_equal(a.samples, b.samples)
