"""The benchmark's four workloads, driven through the public ``repro`` API.

Each workload has the same shape:

* ``setup()`` builds the state the analyses start from (timed as
  ``setup_s``);
* ``episode()`` is one fixed unit of measured work (timed as ``wall_s``);
  it records the latency of every query it answered;
* ``after_episode()`` and ``finish()`` run outside the timed phases: they
  tear down, check the outputs and turn them into operation outcomes,
  accuracy numbers and per-layer counts.

Every call into a ``repro`` module made by ``setup()`` and ``episode()``
goes through the tracer under the name of the layer it belongs to.  The
checks call the library directly: they are not part of what is measured.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.analysis.distributions import EmpiricalDistribution
from repro.analysis.metrics import max_cdf_gap, max_relative_matrix_error, relative_error
from repro.experiments.config import DEFAULT_CONFIG
from repro.experiments.figure7 import (
    MultiplierModule,
    build_multiplier_design,
    build_multiplier_module,
)
from repro.experiments.table1 import TABLE1_CIRCUITS, characterize_circuit
from repro.hier.analysis import CorrelationMode, DesignTimer, analyze_hierarchical_design
from repro.liberty.library import standard_library
from repro.model.criticality import compute_edge_criticalities
from repro.model.extraction import extract_timing_model
from repro.montecarlo.flat import (
    MonteCarloSession,
    auto_chunk_size,
    mc_chunk_budget,
    simulate_graph_delay,
    simulate_io_delays,
)
from repro.montecarlo.hierarchical import build_flat_timing_graph
from repro.netlist.iscas85 import iscas85_surrogate
from repro.netlist.multiplier import array_multiplier
from repro.parallel.pool import shared_executor
from repro.placement.placer import place_netlist
from repro.timing.allpairs import AllPairsTiming
from repro.timing.builder import build_timing_graph
from repro.timing.propagation import circuit_delay
from repro.variation.grid import GridPartition
from repro.variation.model import VariationModel

#: The paper's configuration (Section VI): threshold 0.05, 100 cells per
#: grid, the Nassif parameter budget and its correlation profile.
CONFIG = DEFAULT_CONFIG

#: Seed of every Monte Carlo stream.  The accuracy end-to-end metrics must
#: be deterministic gates, so the references use the paper configuration's
#: fixed seed instead of the workload seed (which varies the ``eco`` edits).
MC_SEED = CONFIG.seed

#: The instance whose module the ``eco`` loop edits, and how many of the
#: module's edges one what-if round retimes.
ECO_INSTANCE = "m0_0"
EDITS_PER_ROUND = 3

MB = float(1 << 20)


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one benchmark configuration."""

    circuits: Tuple[str, ...]
    table1_samples: int
    bits: int
    fig7_samples: int
    eco_samples: int
    eco_rounds: int
    #: Measured length of one episode per workload on the reference host;
    #: a run makes ``round(seconds / nominal)`` episodes, at least one, so
    #: the work per run depends on ``--seconds`` alone.
    nominal_episode_s: Dict[str, float]


FULL = Sizes(
    circuits=TABLE1_CIRCUITS,
    table1_samples=512,
    bits=16,
    fig7_samples=10000,
    eco_samples=2000,
    eco_rounds=12,
    nominal_episode_s={"table1": 24.0, "fig7": 4.5, "eco": 8.5, "fig7-sharded": 3.5},
)

#: Toy sizes for the smoke test: c432, 4-bit multipliers, a few rounds.
TOY = Sizes(
    circuits=("c432",),
    table1_samples=256,
    bits=4,
    fig7_samples=512,
    eco_samples=256,
    eco_rounds=3,
    nominal_episode_s={"table1": 0.5, "fig7": 0.5, "eco": 0.5, "fig7-sharded": 0.5},
)


def digest(values: np.ndarray) -> str:
    """SHA-256 of an array's bytes (bit-identity check)."""
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def _variation(netlist, placement, config):
    """The variation model ``characterize_circuit`` builds for a placement."""
    partition = GridPartition.for_cell_count(
        placement.die, netlist.num_gates, config.max_cells_per_grid
    )
    return VariationModel(
        partition,
        config.correlation(),
        config.sigma_fraction(),
        config.random_variance_share,
    )


def _same_graph(a, b) -> bool:
    """Whether two timing graphs have the same edges and edge delays."""
    if a.num_edges != b.num_edges or a.num_vertices != b.num_vertices:
        return False
    return all(
        x.source == y.source and x.sink == y.sink and x.delay == y.delay
        for x, y in zip(a.edges, b.edges)
    )


def _same_model(a, b, rtol: float = 0.0, atol: float = 0.0) -> bool:
    """Whether two extracted models have the same edges and delays."""

    def edges(model):
        pairs = (((e.source, e.sink), e.delay) for e in model.graph.edges)
        return sorted(pairs, key=lambda pair: pair[0])

    left, right = edges(a), edges(b)
    if [key for key, _ in left] != [key for key, _ in right]:
        return False
    if rtol == 0.0 and atol == 0.0:
        return all(x == y for (_, x), (_, y) in zip(left, right))
    return all(x.is_close(y, rtol=rtol, atol=atol) for (_, x), (_, y) in zip(left, right))


class Outcomes:
    """Operations attempted and failed, plus named check results."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: List[Dict[str, Any]] = []

    def op(self, name: str, ok: bool, detail: str = "") -> None:
        """Count one operation and record its check."""
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.check(name, ok, detail)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Record a check that is not an operation of the workload."""
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    @property
    def correct(self) -> bool:
        return all(check["ok"] for check in self.checks)


class Workload:
    """Shared plumbing of the four workloads."""

    name = ""

    def __init__(self, sizes: Sizes, seed: int, tracer, scratch: str) -> None:
        self.sizes = sizes
        self.seed = seed
        self.tr = tracer
        self.scratch = scratch
        self.outcomes = Outcomes()
        #: Latency (s) of every query the episodes answered.
        self.latencies: List[float] = []
        #: Per-layer counts and derived numbers.
        self.counts: Dict[str, float] = {}
        #: Accuracy and compression numbers (end-to-end metrics).
        self.accuracy: Dict[str, float] = {}
        #: Bases of ratios and other facts recorded with the result.
        self.info: Dict[str, Any] = {}

    def episodes(self, seconds: float) -> int:
        return max(1, int(round(seconds / self.sizes.nominal_episode_s[self.name])))

    def after_episode(self, state, record) -> None:
        """Outside the timed phase: check one episode's outputs."""

    def teardown(self, state, record) -> None:
        """Outside the timed phase: release what an episode left running."""

    def derived(self, layer: Dict[str, float]) -> Dict[str, float]:
        """Per-layer numbers derived from the traced self times."""
        return {}


# ----------------------------------------------------------------------
# table1: extraction of every ISCAS85 surrogate with a Monte Carlo reference
# ----------------------------------------------------------------------
@dataclass
class Row:
    name: str
    graph: Any
    model: Any
    criticalities: Any
    reference: Any
    allpairs_bytes: int
    seconds: float


class Table1(Workload):
    """Table I: all-pairs, criticality, reduction and io Monte Carlo per row."""

    name = "table1"

    def setup(self):
        tr = self.tr
        library = tr.call("liberty.library", standard_library)
        circuits = []
        for name in self.sizes.circuits:
            netlist = tr.call("netlist.generate", iscas85_surrogate, name)
            placement = tr.call("placement.place", place_netlist, netlist, library)
            variation = tr.call("variation.model", _variation, netlist, placement, CONFIG)
            graph = tr.call(
                "timing.build", build_timing_graph, netlist, library, placement,
                variation, name=name,
            )
            circuits.append((name, variation, graph))
        return library, circuits

    def setup_counts(self, state) -> None:
        _library, circuits = state
        self.counts["timing.graph_edges"] = sum(g.num_edges for _, _, g in circuits)

    def episode(self, state, index: int) -> List[Row]:
        tr = self.tr
        _library, circuits = state
        rows = []
        table_start = perf_counter()
        for name, variation, graph in circuits:
            start = perf_counter()
            analysis = tr.call("timing.allpairs", AllPairsTiming.analyze, graph)
            criticalities = tr.call(
                "model.criticality", compute_edge_criticalities, graph, analysis
            )
            model = tr.call(
                "model.reduce", extract_timing_model, graph, variation,
                CONFIG.criticality_threshold, analysis=analysis,
                criticalities=criticalities,
            )
            report = tr.call("timing.allpairs", analysis.nbytes_report)
            reference = tr.call(
                "montecarlo.io", simulate_io_delays, graph,
                self.sizes.table1_samples, MC_SEED,
            )
            seconds = perf_counter() - start
            # Held through the Monte Carlo reference like run_table1's rows.
            del analysis
            rows.append(
                Row(name, graph, model, criticalities, reference, report["total"], seconds)
            )
        # One query of this workload is the whole table.
        self.latencies.append(perf_counter() - table_start)
        return rows

    def after_episode(self, state, rows: List[Row]) -> None:
        merrs, verrs = [], []
        for row in rows:
            stats = row.model.stats
            merr = max_relative_matrix_error(row.model.delay_matrix_means(), row.reference.means)
            verr = max_relative_matrix_error(row.model.delay_matrix_stds(), row.reference.stds)
            merrs.append(merr)
            verrs.append(verr)
            # The bounds benchmarks/bench_table1.py asserts per row.
            ok = (
                stats.edge_ratio < 0.55
                and stats.vertex_ratio < 0.60
                and merr < 0.05
                and verr < 0.12
            )
            detail = "pe=%.3f pv=%.3f merr=%.4f verr=%.4f" % (
                stats.edge_ratio, stats.vertex_ratio, merr, verr,
            )
            if row.name == "c7552":
                # Fig. 6 shape: most edges sit in the lowest criticality bin.
                counts, _edges = row.criticalities.histogram()
                below = len(row.criticalities.below(CONFIG.criticality_threshold))
                fraction = below / max(len(row.criticalities.max_criticality), 1)
                ok = ok and fraction > 0.3 and counts[0] == counts.max()
                detail += " below_%.2f=%.3f" % (CONFIG.criticality_threshold, fraction)
                self.info["c7552_fraction_below_threshold"] = fraction
            self.outcomes.op("row %s" % row.name, ok, detail)

        self.accuracy = {
            "edge_ratio": float(np.mean([r.model.stats.edge_ratio for r in rows])),
            "vertex_ratio": float(np.mean([r.model.stats.vertex_ratio for r in rows])),
            "mean_err_pct": 100.0 * float(np.mean(merrs)),
            "std_err_pct": 100.0 * float(np.mean(verrs)),
        }
        budget = mc_chunk_budget()
        largest = None
        for row in rows:
            graph = row.graph
            inputs, vertices, edges = len(graph.inputs), graph.num_vertices, graph.num_edges
            chunk = auto_chunk_size(edges, vertices, inputs, self.sizes.table1_samples)
            block = vertices * inputs * chunk
            if largest is None or block > largest[0]:
                working_set = (edges + (vertices + edges) * inputs) * chunk
                largest = (block, row.name, chunk, working_set)
        block, name, chunk, working_set = largest
        self.counts.update({
            "timing.allpairs_mb": max(r.allpairs_bytes for r in rows) / MB,
            "model.criticality_edges": sum(len(r.criticalities.max_criticality) for r in rows),
            "model.kept_edges": sum(r.model.stats.model_edges for r in rows),
            "montecarlo.io_chunk": chunk,
            "montecarlo.io_block_mb": block * 8 / MB,
            "montecarlo.io_budget_x": working_set / budget,
        })
        self.info["io_block_row"] = name
        self.info["io_budget_floats"] = budget
        self.info["row_seconds"] = {row.name: row.seconds for row in rows}

    def finish(self, state) -> None:
        # The set-up calls the layers characterize_circuit() is made of;
        # check that it still builds exactly the same graphs.
        library, circuits = state
        same = all(
            _same_graph(graph, characterize_circuit(name, CONFIG, library).graph)
            for name, _variation_model, graph in circuits
        )
        self.outcomes.check("setup matches characterize_circuit", same)


# ----------------------------------------------------------------------
# fig7 and fig7-sharded: hierarchical analysis against flattened Monte Carlo
# ----------------------------------------------------------------------
def build_module(tr, bits: int):
    """``build_multiplier_module`` made of its layer calls; returns
    ``(library, module, full module graph)``."""
    library = tr.call("liberty.library", standard_library)
    netlist = tr.call("netlist.generate", array_multiplier, bits, name="mult%d" % bits)
    placement = tr.call("placement.place", place_netlist, netlist, library)
    variation = tr.call("variation.model", _variation, netlist, placement, CONFIG)
    graph = tr.call(
        "timing.build", build_timing_graph, netlist, library, placement, variation,
        name=netlist.name,
    )
    model = tr.call(
        "model.extract_module", extract_timing_model, graph, variation,
        CONFIG.criticality_threshold,
    )
    module = MultiplierModule(netlist, placement, variation, model, 0.0)
    return library, module, graph


@dataclass
class Fig7Episode:
    replacement: Any
    global_only: Any
    samples: np.ndarray
    map_reports: List[Any]
    probes: List[Any]
    executor: Any = None


class Fig7(Workload):
    """Fig. 7: the four-multiplier design, serial Monte Carlo reference."""

    name = "fig7"

    def setup(self):
        return build_module(self.tr, self.sizes.bits)

    def setup_counts(self, state) -> None:
        _library, module, graph = state
        self.counts["timing.graph_edges"] = graph.num_edges
        stats = module.model.stats
        self.accuracy["edge_ratio"] = stats.edge_ratio
        self.accuracy["vertex_ratio"] = stats.vertex_ratio

    def episode(self, state, index: int) -> Fig7Episode:
        tr = self.tr
        library, module, _graph = state
        start = perf_counter()
        design = tr.call("hier.design_build", build_multiplier_design, module)
        replacement = tr.call(
            "hier.analyze_replacement", analyze_hierarchical_design, design,
            CorrelationMode.REPLACEMENT,
        )
        global_only = tr.call(
            "hier.analyze_global_only", analyze_hierarchical_design, design,
            CorrelationMode.GLOBAL_ONLY,
        )
        flat = tr.call("montecarlo.flatten", build_flat_timing_graph, design, library)
        record = Fig7Episode(replacement, global_only, None, [], [])
        record.samples = self._monte_carlo(flat, record).samples
        self.latencies.append(perf_counter() - start)
        return record

    def _monte_carlo(self, flat, record: Fig7Episode):
        """The flattened Monte Carlo reference (serial)."""
        return self.tr.call(
            "montecarlo.delay", simulate_graph_delay, flat, self.sizes.fig7_samples, MC_SEED
        )

    def derived(self, layer: Dict[str, float]) -> Dict[str, float]:
        delay = layer.get("montecarlo.delay_s", 0.0)
        replacement = layer.get("hier.analyze_replacement_s", 0.0)
        return {
            "hier.speedup_vs_mc": delay / replacement if replacement else 0.0,
            "montecarlo.samples_per_s": self.sizes.fig7_samples / delay if delay else 0.0,
        }

    def after_episode(self, state, record: Fig7Episode) -> None:
        distribution = EmpiricalDistribution(record.samples)
        mc_mean = float(np.mean(record.samples))
        mc_std = float(np.std(record.samples, ddof=1))
        rep, glo = record.replacement, record.global_only
        rep_gap = max_cdf_gap(distribution, rep.mean, rep.std)
        glo_gap = max_cdf_gap(distribution, glo.mean, glo.std)
        mean_err = relative_error(rep.mean, mc_mean)
        std_err = relative_error(rep.std, mc_std)
        finite = bool(np.all(np.isfinite(record.samples)))
        # The shape bench_figure7.py asserts: the proposed method tracks
        # Monte Carlo, the global-only baseline underestimates the spread.
        self.outcomes.op(
            "replacement analysis", rep_gap < glo_gap and mean_err < 0.08,
            "cdf_gap=%.4f (global-only %.4f) mean_err=%.4f" % (rep_gap, glo_gap, mean_err),
        )
        self.outcomes.op(
            "global-only analysis", glo.std < rep.std,
            "sigma=%.2f (replacement %.2f)" % (glo.std, rep.std),
        )
        self.outcomes.op("monte carlo reference", finite, "samples=%d" % record.samples.size)
        self.counts["hier.design_edges"] = rep.graph.num_edges
        self.accuracy["mean_err_pct"] = 100.0 * mean_err
        self.accuracy["std_err_pct"] = 100.0 * std_err
        self.info["mc_digest"] = digest(record.samples)
        self.info["cdf_gap"] = {"replacement": rep_gap, "global_only": glo_gap}

    def finish(self, state) -> None:
        library, module, _graph = state
        # The set-up calls the layers build_multiplier_module() is made of.
        reference = build_multiplier_module(self.sizes.bits, CONFIG, library)
        self.outcomes.check(
            "setup matches build_multiplier_module", _same_model(module.model, reference.model)
        )


class Fig7Sharded(Fig7):
    """Fig. 7 with the Monte Carlo reference sharded over a fresh spawn pool."""

    name = "fig7-sharded"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.workers = max(2, min(4, os.cpu_count() or 1))
        self.info["workers"] = self.workers
        self._digests: List[str] = []

    def _monte_carlo(self, flat, record: Fig7Episode):
        tr = self.tr
        # What a first workers= call does: create the shared executor and
        # spawn its pool (the probe task waits for the workers to start).
        executor = tr.call("parallel.spawn", shared_executor, self.workers)
        probes, probe_report = tr.call(
            "parallel.spawn", executor.run_with_report, "worker_probe",
            [None] * self.workers,
        )
        result = tr.call(
            "montecarlo.delay", simulate_graph_delay, flat, self.sizes.fig7_samples,
            MC_SEED, workers=self.workers,
        )
        record.executor = executor
        record.probes = probes
        record.map_reports = [probe_report, result.map_report]
        return result

    def teardown(self, state, record: Fig7Episode) -> None:
        self.tr.call("parallel.close", record.executor.close)

    def derived(self, layer: Dict[str, float]) -> Dict[str, float]:
        numbers = super().derived(layer)
        sharded = layer.get("montecarlo.delay_s", 0.0)
        serial = self.info["serial_delay_s"]
        numbers["parallel.speedup"] = serial / sharded if sharded else 0.0
        return numbers

    def after_episode(self, state, record: Fig7Episode) -> None:
        super().after_episode(state, record)
        self._digests.append(self.info["mc_digest"])
        for report in record.map_reports:
            clean = report is not None and report.engine == "process" and report.clean
            detail = "missing" if report is None else (
                "task=%s engine=%s tasks=%d attempts=%d retries=%d respawns=%d degraded=%d"
                % (report.task, report.engine, report.tasks, report.attempts,
                   report.retries, report.respawns, report.degraded)
            )
            tasks = report.tasks if report is not None else 1
            for position in range(tasks):
                self.outcomes.op("map task %d" % position, clean, detail)
        probes_ok = all(
            probe["daemon"] and probe["maybe_executor"] is None for probe in record.probes
        )
        self.outcomes.check("worker probe: nested pools degrade to serial", probes_ok)
        report = record.map_reports[1]
        if report is not None:
            self.counts.update({
                "parallel.tasks": report.tasks,
                "parallel.attempts": report.attempts,
                "parallel.retries": report.retries,
                "parallel.respawns": report.respawns,
                "parallel.degraded": report.degraded,
                "parallel.useful_ratio": report.tasks / max(report.attempts, 1),
            })

    def finish(self, state) -> None:
        super().finish(state)
        library, module, _graph = state
        flat = build_flat_timing_graph(build_multiplier_design(module), library)
        start = perf_counter()
        serial = simulate_graph_delay(flat, self.sizes.fig7_samples, MC_SEED)
        self.info["serial_delay_s"] = perf_counter() - start
        expected = digest(serial.samples)
        self.outcomes.check(
            "sharded samples bit-identical to serial",
            all(value == expected for value in self._digests),
            "serial %s" % expected[:16],
        )


# ----------------------------------------------------------------------
# eco: block what-if rounds on one instance, then a store warm restart
# ----------------------------------------------------------------------
@dataclass
class EcoState:
    library: Any
    module: Any
    graph: Any
    edges: Tuple[Any, ...]
    design: Any
    timer: Any
    incremental: Any
    session: Any
    montecarlo: Any
    model: Any = None


@dataclass
class EcoEpisode:
    bundle: str
    loaded_timer: Any
    loaded_montecarlo: Any


def _retime(graph, edges, edits) -> None:
    """Scale the delays of the chosen module edges (one what-if edit)."""
    for index, factor in edits:
        edge = edges[index]
        graph.replace_edge_delay(edge, edge.delay.scale(factor))


class Eco(Workload):
    """A closed what-if loop with one client over the design's first instance."""

    name = "eco"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._rng = np.random.default_rng(self.seed)
        self._round_ok: List[bool] = []
        self._round_counts: Dict[str, float] = {}

    def setup(self):
        tr = self.tr
        library, module, graph = build_module(tr, self.sizes.bits)
        edges = tr.call("timing.build", lambda: graph.edges)
        design = tr.call("hier.design_build", build_multiplier_design, module)
        timer = tr.call("hier.timer_build", DesignTimer, design)
        tr.call("hier.timer_build", timer.circuit_delay)
        incremental = tr.call("hier.timer_build", lambda: timer.timer)
        session = tr.call(
            "model.session_attach", timer.attach_module_source, ECO_INSTANCE, graph,
            module.variation,
        )
        montecarlo = tr.call(
            "montecarlo.session_cold", MonteCarloSession, graph,
            num_samples=self.sizes.eco_samples, seed=MC_SEED,
        )
        tr.call("montecarlo.session_cold", montecarlo.revalidate)
        return EcoState(
            library, module, graph, edges, design, timer, incremental, session, montecarlo
        )

    def setup_counts(self, state: EcoState) -> None:
        self.counts["timing.graph_edges"] = state.graph.num_edges
        self.info["module_vertices"] = state.graph.num_vertices
        # The module's extracted model against Monte Carlo of the module,
        # taken before the seeded edits so that it stays a deterministic
        # gate; the loop itself is checked against cold rebuilds.
        model = state.module.model
        samples = state.montecarlo.revalidate().samples
        model_delay = circuit_delay(model.graph)
        self.accuracy = {
            "edge_ratio": model.stats.edge_ratio,
            "vertex_ratio": model.stats.vertex_ratio,
            "mean_err_pct": 100.0 * relative_error(model_delay.mean, float(np.mean(samples))),
            "std_err_pct": 100.0 * relative_error(
                model_delay.std, float(np.std(samples, ddof=1))
            ),
        }

    def _edits(self, num_edges: int) -> List[Tuple[int, float]]:
        """The next seeded what-if: three module edges, each scaled by a
        factor in [0.9, 1.1)."""
        indices = self._rng.choice(num_edges, size=EDITS_PER_ROUND, replace=False)
        factors = self._rng.uniform(0.9, 1.1, size=EDITS_PER_ROUND)
        return [(int(i), float(f)) for i, f in zip(indices, factors)]

    def _count(self, name: str, value: float) -> None:
        self._round_counts[name] = self._round_counts.get(name, 0.0) + value

    def episode(self, state: EcoState, index: int) -> EcoEpisode:
        tr = self.tr
        module = state.module
        for _round in range(self.sizes.eco_rounds):
            edits = self._edits(len(state.edges))
            start = perf_counter()
            tr.call("timing.retime", _retime, state.graph, state.edges, edits)
            update = tr.call("model.session_refresh", state.session.refresh)
            model = tr.call(
                "model.session_reduce", state.session.extract, CONFIG.criticality_threshold
            )
            tr.call(
                "hier.swap", state.timer.swap_instance_model, ECO_INSTANCE, model,
                netlist=module.netlist, placement=module.placement,
            )
            delay = tr.call("timing.incremental", state.timer.circuit_delay)
            result = tr.call("montecarlo.revalidate", state.montecarlo.revalidate)
            self.latencies.append(perf_counter() - start)
            state.model = model
            self._round_ok.append(
                bool(np.isfinite(delay.mean) and delay.std > 0.0)
                and bool(np.all(np.isfinite(result.samples)))
            )
            self._count("timing.allpairs_fwd_cone", update.forward_recomputed)
            self._count("timing.allpairs_bwd_cone", update.backward_recomputed)
            self._count("timing.allpairs_full_refreshes", update.mode == "full")
            self._count("timing.incremental_cone", state.incremental.last_update.forward_recomputed)
            refresh = state.montecarlo.last_refresh
            self._count("montecarlo.resampled_rows", refresh.resampled_rows)
            self._count("montecarlo.rows_refreshes", refresh.kind == "rows")
        bundle = tempfile.mkdtemp(prefix="eco-bundle-", dir=self.scratch)
        tr.call("store.save", state.timer.save, os.path.join(bundle, "design"))
        tr.call("store.save", state.montecarlo.save, os.path.join(bundle, "montecarlo.npz"))
        loaded_timer = tr.call(
            "store.load", DesignTimer.load, os.path.join(bundle, "design"), state.design,
            library=state.library,
        )
        loaded_montecarlo = tr.call(
            "store.load", MonteCarloSession.load, os.path.join(bundle, "montecarlo.npz")
        )
        return EcoEpisode(bundle, loaded_timer, loaded_montecarlo)

    def after_episode(self, state: EcoState, record: EcoEpisode) -> None:
        live_samples = state.montecarlo.revalidate().samples
        same_delay = record.loaded_timer.circuit_delay() == state.timer.circuit_delay()
        same_samples = np.array_equal(record.loaded_montecarlo.revalidate().samples, live_samples)
        restored = record.loaded_timer.extraction_session(ECO_INSTANCE).extract(
            CONFIG.criticality_threshold
        )
        same_model = _same_model(restored, state.model)
        self.outcomes.op(
            "store warm restart", same_delay and same_samples and same_model,
            "delay=%s samples=%s model=%s" % (same_delay, same_samples, same_model),
        )
        size = 0
        for folder, _dirs, files in os.walk(record.bundle):
            size += sum(os.path.getsize(os.path.join(folder, name)) for name in files)
        self.counts["store.bundle_mb"] = size / MB
        shutil.rmtree(record.bundle)

    def derived(self, layer: Dict[str, float]) -> Dict[str, float]:
        # The cold session builds a warm restart replaces.
        cold_builds = ("hier.timer_build_s", "model.session_attach_s", "montecarlo.session_cold_s")
        cold = sum(layer.get(name, 0.0) for name in cold_builds)
        load = layer.get("store.load_s", 0.0)
        return {"store.warm_vs_cold": cold / load if load else 0.0}

    def finish(self, state: EcoState) -> None:
        rounds = len(self._round_ok)
        for position, ok in enumerate(self._round_ok):
            self.outcomes.op("round %d" % position, ok, "finite delay and samples")
        # After the loop the warm state must match cold rebuilds.
        cold_model = extract_timing_model(
            state.graph, state.module.variation, CONFIG.criticality_threshold
        )
        model_ok = _same_model(state.model, cold_model, rtol=1e-9, atol=1e-9)
        warm_delay = state.timer.circuit_delay()
        cold_delay = analyze_hierarchical_design(state.design).circuit_delay
        delay_ok = warm_delay.is_close(cold_delay, rtol=1e-9, atol=1e-9)
        warm = state.montecarlo.revalidate().samples
        cold = MonteCarloSession(
            state.graph, num_samples=self.sizes.eco_samples, seed=MC_SEED
        ).revalidate().samples
        samples_ok = bool(np.allclose(warm, cold, rtol=1e-9, atol=1e-9))
        self.outcomes.op(
            "warm state matches cold rebuild", model_ok and delay_ok and samples_ok,
            "model=%s delay=%s samples=%s" % (model_ok, delay_ok, samples_ok),
        )
        vertices = self.info["module_vertices"]
        episodes = max(rounds // self.sizes.eco_rounds, 1)
        per_episode = {name: value / episodes for name, value in self._round_counts.items()}
        rows_refreshes = per_episode.pop("montecarlo.rows_refreshes")
        per_round = self.sizes.eco_rounds
        self.counts.update(per_episode)
        self.counts["timing.allpairs_cone_frac"] = (
            per_episode["timing.allpairs_fwd_cone"] / (per_round * vertices)
        )
        self.counts["montecarlo.rows_refresh_frac"] = rows_refreshes / per_round
        self.info["rounds"] = rounds
        self.info["rounds_per_episode"] = per_round


WORKLOADS = {
    "table1": Table1,
    "fig7": Fig7,
    "eco": Eco,
    "fig7-sharded": Fig7Sharded,
}
