"""Vectorized Monte Carlo timing simulation on a statistical timing graph.

The simulator samples all edge delays jointly straight from the
:class:`~repro.core.batch.CanonicalBatch` view of the graph's edge arrays —
one shared standard-normal draw per correlated component (global plus local
PCA variables) and private noise per edge — then computes per-sample
longest paths.

Sampling is **counter-based per block**: the sample axis is divided into
fixed :data:`MC_SAMPLE_BLOCK`-sample blocks and block ``b`` is drawn from
its own keyed stream ``(seed, 2, b)``.  A block's draws therefore depend
only on the seed and the block index — never on the chunk size, the number
of workers, or which process draws it — so the one-shot simulators are
bit-identical across chunkings and across any sharding of the sample axis
(see :mod:`repro.parallel`).  Per-pair moments accumulate per block in
ascending block order for the same reason.

Longest paths run on one production kernel at every graph size: the
**levelized** kernel walks the Kahn level schedules of
:class:`~repro.timing.arrays.GraphArrays` and folds each level's fanin
edges as whole prefix rounds over a pre-permuted sampled delay matrix —
no per-vertex Python work at all.  The same kernel generalises to a third
*source* axis, so :func:`simulate_io_delays` computes the per-input
longest paths of a group of ``g`` inputs in one ``(V, g, chunk)`` pass,
every group sharing one sampled delay matrix, instead of ``|I|`` full
propagations per chunk (``g`` is sized to the chunk budget, see
:func:`_io_group_size`).  :func:`_longest_paths_object`, the original
per-vertex loop over ``fanin_edges``, stays as the readable bitwise
reference the tests check the kernel against (``max`` and ``+`` are
exact, so the fold order does not matter).

On top of the one-shot simulators, :class:`MonteCarloSession` keeps the
sampled ``(E, S)`` edge-delay matrix alive as a cache keyed to the graph's
revisioned change journal: after an ECO, only the rows named by the
coalesced retime window are resampled (structural windows migrate the
surviving rows, journal overflow / IO changes fall back to a full
resample) and only the affected sample cone is repropagated.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

from repro.errors import TimingGraphError
from repro.timing.arrays import GraphArrays, _graph_arrays
from repro.timing.graph import TimingGraph

__all__ = [
    "MC_ARRIVALS_CACHE_MAX_FLOATS",
    "MC_CHUNK_BUDGET_FLOATS",
    "MC_SAMPLE_BLOCK",
    "MonteCarloRefresh",
    "MonteCarloResult",
    "MonteCarloSession",
    "IoDelayStatistics",
    "auto_chunk_size",
    "mc_chunk_budget",
    "simulate_graph_delay",
    "simulate_io_delays",
]

_NEG_INF = -np.inf

#: Working-set budget (in float64 elements) of one sample chunk: the
#: sampled delay block ``(E, chunk)`` plus, per source, the arrival block
#: ``(V, chunk)`` and the transient per-level candidate block.  It sizes
#: auto chunks and the input groups of :func:`simulate_io_delays`, whose
#: ``(V, g, chunk)`` passes use the largest ``g`` that fits.  The floor
#: is one source and one :data:`MC_SAMPLE_BLOCK`, which a tiny budget may
#: exceed.  4M floats (32 MiB) keeps the chunk working set last-level-
#: cache resident on typical hardware — the levelized kernel's sweet spot
#: (measured on c7552: ~40 us/sample at chunk 256 vs ~56 us at 1024).
#: Overridable per run via the ``REPRO_MC_CHUNK_BUDGET`` environment
#: variable (see :func:`mc_chunk_budget`).
MC_CHUNK_BUDGET_FLOATS = 1 << 22

#: Environment variable overriding :data:`MC_CHUNK_BUDGET_FLOATS`.
MC_CHUNK_BUDGET_ENV = "REPRO_MC_CHUNK_BUDGET"

#: Bounds of the auto-sized chunk (an explicit ``chunk_size`` still wins).
MC_MIN_CHUNK = 16
MC_MAX_CHUNK = 8192

#: Samples per counter-based sampling block: block ``b`` of a run is drawn
#: from the keyed stream ``(seed, 2, b)`` (domain constant 2 — disjoint
#: from :class:`MonteCarloSession`'s ``(seed, 0)`` correlated and
#: ``(seed, 1, edge_id)`` per-edge streams).  Chunks and worker shards are
#: block-aligned so each block is always drawn whole by exactly one owner.
MC_SAMPLE_BLOCK = 128


def mc_chunk_budget() -> int:
    """The active chunk working-set budget (float64 elements).

    Reads ``REPRO_MC_CHUNK_BUDGET`` on every call so tests and batch jobs
    can retune chunking without touching code; raises a clear
    ``ValueError`` on a non-integer or non-positive override.
    """
    raw = os.environ.get(MC_CHUNK_BUDGET_ENV)
    if raw is None:
        return MC_CHUNK_BUDGET_FLOATS
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError(
            "%s must be an integer, got %r" % (MC_CHUNK_BUDGET_ENV, raw)
        ) from None
    if budget <= 0:
        raise ValueError(
            "%s must be positive, got %d" % (MC_CHUNK_BUDGET_ENV, budget)
        )
    return budget

#: Largest ``V x S`` arrival matrix a :class:`MonteCarloSession` caches by
#: default for dirty-cone repropagation (512 MiB of float64).  Larger
#: sessions fall back to chunked full repropagation on refresh.
MC_ARRIVALS_CACHE_MAX_FLOATS = 1 << 26


def auto_chunk_size(
    num_edges: int,
    num_vertices: int,
    num_sources: int = 1,
    num_samples: Optional[int] = None,
) -> int:
    """Sample-chunk size keeping the per-chunk working set memory-bounded.

    Sizes the chunk so that ``delays (E, chunk)`` plus the per-source
    arrival and candidate blocks (``(V, chunk)`` and ``~(E, chunk)`` each,
    times ``num_sources`` for the multi-source kernel) stay within the
    active budget (:func:`mc_chunk_budget`), clipped to
    ``[MC_MIN_CHUNK, MC_MAX_CHUNK]`` and to ``num_samples``.  When even
    one block of ``num_sources`` sources exceeds the budget the chunk is
    the one-block floor and the working set overshoots; the io reference
    avoids that by passing one input group, not all ``|I|`` inputs, as
    ``num_sources`` (see :func:`_io_plan`).

    The chunk is **block-aligned**: the counter-based sampler always
    materialises whole :data:`MC_SAMPLE_BLOCK`-sample blocks and slices the
    requested window out (see :func:`_sample_delay_range`), so a sub-block
    chunk redraws the same ``(E, block)`` matrix once per chunk instead of
    once per block.  At million-edge scale the budget used to resolve the
    chunk to 1, turning one block draw into up to 128 — a ~27x Monte Carlo
    throughput collapse (BENCH_scaling.json, 10^6 edges).  One whole block
    is therefore the working-set floor (it is already the peak allocation
    the sampler makes regardless of the chunk), and larger budget-sized
    chunks round down to block multiples; ``num_samples`` clips last, so
    short runs still use a single exact-sized chunk.
    """
    per_sample = num_edges + (num_vertices + num_edges) * max(int(num_sources), 1)
    budget_chunk = int(mc_chunk_budget() // max(per_sample, 1))
    chunk = min(MC_MAX_CHUNK, max(MC_MIN_CHUNK, budget_chunk))
    chunk = min(chunk, max(budget_chunk, 1))
    if chunk < MC_SAMPLE_BLOCK:
        chunk = MC_SAMPLE_BLOCK
    else:
        chunk -= chunk % MC_SAMPLE_BLOCK
    if num_samples is not None:
        chunk = min(chunk, int(num_samples))
    return max(chunk, 1)


def _resolve_chunk_size(
    chunk_size: Optional[int],
    arrays: GraphArrays,
    num_sources: int,
    num_samples: int,
) -> int:
    """An explicit ``chunk_size`` wins; ``None`` auto-sizes from the graph."""
    if chunk_size is not None:
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        return int(chunk_size)
    return auto_chunk_size(
        arrays.edge_mean.shape[0], arrays.num_vertices, num_sources, num_samples
    )


@dataclass
class MonteCarloResult:
    """Samples of a circuit delay distribution plus summary statistics.

    ``map_report`` is the sharded run's
    :class:`~repro.parallel.pool.MapReport` (``None`` on the serial path):
    the samples are bit-identical either way, but the report says whether
    the pool had to retry, respawn or degrade to finish.
    """

    samples: np.ndarray
    elapsed_seconds: float
    _sorted_samples: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )
    map_report: Optional[object] = field(default=None, repr=False, compare=False)

    @property
    def num_samples(self) -> int:
        """Number of Monte Carlo iterations."""
        return int(self.samples.shape[0])

    @property
    def sorted_samples(self) -> np.ndarray:
        """The samples in ascending order (sorted once, then cached)."""
        if self._sorted_samples is None:
            self._sorted_samples = np.sort(self.samples)
        return self._sorted_samples

    @property
    def mean(self) -> float:
        """Sample mean of the circuit delay."""
        return float(np.mean(self.samples))

    @property
    def std(self) -> float:
        """Sample standard deviation of the circuit delay."""
        return float(np.std(self.samples, ddof=1)) if self.num_samples > 1 else 0.0

    def quantile(self, q: float) -> float:
        """Empirical quantile of the circuit delay."""
        return float(np.quantile(self.samples, q))

    def cdf(self, values: np.ndarray) -> np.ndarray:
        """Empirical CDF evaluated at ``values`` (uses the cached sort)."""
        ranks = np.searchsorted(
            self.sorted_samples, np.asarray(values, dtype=float), side="right"
        )
        return ranks / float(self.num_samples)

    def histogram(self, bins: int = 50) -> Tuple[np.ndarray, np.ndarray]:
        """Histogram of the sampled delays."""
        return np.histogram(self.samples, bins=bins)


@dataclass
class IoDelayStatistics:
    """Monte Carlo statistics of every input-to-output delay of a module.

    ``valid`` marks the structurally connected pairs (output reachable from
    the input through the graph); ``means``/``stds`` hold NaN elsewhere.
    """

    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    means: np.ndarray
    stds: np.ndarray
    valid: np.ndarray
    num_samples: int
    elapsed_seconds: float
    _input_index: Optional[Dict[str, int]] = field(
        default=None, repr=False, compare=False
    )
    _output_index: Optional[Dict[str, int]] = field(
        default=None, repr=False, compare=False
    )
    #: MapReport of the sharded run (None on the serial path).
    map_report: Optional[object] = field(default=None, repr=False, compare=False)

    def _pair(self, input_name: str, output_name: str) -> Tuple[int, int]:
        if self._input_index is None:
            self._input_index = {name: i for i, name in enumerate(self.inputs)}
            self._output_index = {name: j for j, name in enumerate(self.outputs)}
        try:
            return self._input_index[input_name], self._output_index[output_name]
        except KeyError as exc:
            raise ValueError("unknown input/output name %s" % exc) from None

    def mean(self, input_name: str, output_name: str) -> float:
        """Mean delay of one input/output pair."""
        i, j = self._pair(input_name, output_name)
        return float(self.means[i, j])

    def std(self, input_name: str, output_name: str) -> float:
        """Standard deviation of one input/output pair delay."""
        i, j = self._pair(input_name, output_name)
        return float(self.stds[i, j])


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------
def _block_rng(seed: int, block: int) -> np.random.Generator:
    """The keyed stream of one sampling block (domain constant 2)."""
    return np.random.default_rng((int(seed), 2, int(block)))


def _sample_delay_range(
    arrays: GraphArrays, seed: int, num_samples: int, start: int, stop: int
) -> np.ndarray:
    """Sampled edge delays of samples ``[start, stop)``, ``(E, stop-start)``.

    Assembled from whole counter-based blocks: block ``b`` always draws its
    full ``min(MC_SAMPLE_BLOCK, num_samples - b * MC_SAMPLE_BLOCK)`` columns
    from its own stream and the requested window is sliced out, so the
    values of any sample depend only on ``(seed, num_samples)`` — never on
    the chunking or sharding that requested them.
    """
    batch = arrays.edge_batch
    parts = []
    block = start // MC_SAMPLE_BLOCK
    last = (stop - 1) // MC_SAMPLE_BLOCK
    while block <= last:
        low = block * MC_SAMPLE_BLOCK
        high = min(low + MC_SAMPLE_BLOCK, num_samples)
        draws = batch.sample(_block_rng(seed, block), high - low)
        parts.append(draws[:, max(start, low) - low : min(stop, high) - low])
        block += 1
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts, axis=1)


# ----------------------------------------------------------------------
# Longest-path kernels
# ----------------------------------------------------------------------
def _longest_paths_object(
    arrays: GraphArrays,
    delays: np.ndarray,
    source_rows: np.ndarray,
) -> np.ndarray:
    """Per-sample longest paths: the original per-vertex reference loop.

    Returns a ``(V, num_samples)`` matrix; vertices unreachable from every
    source hold ``-inf``.
    """
    graph = arrays.graph
    index = arrays.vertex_index
    num_samples = delays.shape[1]
    arrivals = np.full((graph.num_vertices, num_samples), _NEG_INF)
    arrivals[source_rows] = 0.0

    for vertex in arrays.topo_order:
        vertex_row = index[vertex]
        for edge in graph.fanin_edges(vertex):
            edge_row = arrays.edge_rows[edge.edge_id]
            source_row = arrays.edge_source[edge_row]
            source_arrival = arrivals[source_row]
            candidate = source_arrival + delays[edge_row]
            np.maximum(arrivals[vertex_row], candidate, out=arrivals[vertex_row])
    return arrivals


def _level_fanin(
    arrays: GraphArrays, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(edge_rows, segment_starts)`` of the fanin edges of ``rows``.

    ``edge_rows`` lists every fanin edge of the given vertex rows grouped
    per vertex (CSR order); ``segment_starts[k]`` is the offset of vertex
    ``rows[k]``'s group, ready for a ``reduceat`` segment reduction.  All
    rows of a forward level have at least one fanin edge, so no segment is
    empty.
    """
    edge_rows = arrays.in_edges_of(rows)
    counts = arrays.fanin_counts()[rows]
    starts = np.zeros(rows.shape[0], dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return edge_rows, starts


@dataclass(frozen=True)
class _ForwardSchedule:
    """Round-scheduled fold plan of the forward levels (Monte Carlo view).

    ``perm`` lists every edge row once, in fold order (level by level,
    round by round), so ``delays[perm]`` turns all per-round delay lookups
    into contiguous slices.  ``levels[k]`` is ``(vertex_rows, rounds)``
    with ``rounds`` a list of ``(source_rows, offset, count)``: round
    ``r`` folds the ``r``-th fanin edge of the level's leading ``count``
    vertices (vertices are pre-sorted by descending degree, so round
    participants are always a prefix — the same trick as the batched SSTA
    engine's :func:`~repro.timing.propagation._fold_rounds`).
    """

    perm: np.ndarray
    levels: Tuple[Tuple[np.ndarray, Tuple[Tuple[np.ndarray, int, int], ...]], ...]


def _forward_schedule(arrays: GraphArrays) -> _ForwardSchedule:
    """The fold schedule of ``arrays`` (cached on the levelized schedules).

    Keyed to the identity of the cached ``forward_levels()`` list, which
    :meth:`GraphArrays.refresh` invalidates on any structural window — so
    the schedule follows the arrays through incremental maintenance for
    free.
    """
    levels = arrays.forward_levels()
    cached = getattr(arrays, "_mc_forward_schedule", None)
    if cached is not None and cached[0] is levels:
        return cached[1]

    edge_source = arrays.edge_source
    perm_parts = []
    schedule_levels = []
    offset = 0
    for level in levels:
        edge_matrix = level.edge_matrix
        round_counts = level.round_counts
        rounds = []
        for round_index in range(edge_matrix.shape[1]):
            count = int(round_counts[round_index])
            if count == 0:
                break  # counts are non-increasing
            edge_rows = edge_matrix[:count, round_index]
            perm_parts.append(edge_rows)
            rounds.append((edge_source[edge_rows], offset, count))
            offset += count
        schedule_levels.append((level.vertex_rows, tuple(rounds)))
    perm = (
        np.concatenate(perm_parts)
        if perm_parts
        else np.empty(0, dtype=np.int64)
    )
    schedule = _ForwardSchedule(perm, tuple(schedule_levels))
    arrays._mc_forward_schedule = (levels, schedule)
    return schedule


def _fold_level_rounds(arrivals, permuted_delays, rounds, multi: bool):
    """Fold one level's rounds into a fresh accumulator block.

    Round 0 covers every vertex of the level, so the accumulator is fully
    initialised before its first read; later rounds max into the prefix
    ``[:count]``.  ``multi`` adds the delay slice across the source axis.
    """
    acc = None
    for source_rows, offset, count in rounds:
        candidates = arrivals[source_rows]
        delay_block = permuted_delays[offset : offset + count]
        if multi:
            candidates += delay_block[:, np.newaxis, :]
        else:
            candidates += delay_block
        if acc is None:
            acc = candidates
        else:
            np.maximum(acc[:count], candidates, out=acc[:count])
    return acc


def _longest_paths_levelized(
    arrays: GraphArrays,
    delays: np.ndarray,
    source_rows: np.ndarray,
) -> np.ndarray:
    """Level-scheduled longest paths from a single set of sources.

    Bit-identical to :func:`_longest_paths_object` (``+`` and ``max`` are
    exact, so the per-vertex fold order is immaterial), but each level's
    fanin edges are folded as whole prefix rounds over the pre-permuted
    delay matrix instead of a per-vertex Python loop.
    """
    schedule = _forward_schedule(arrays)
    num_samples = delays.shape[1]
    arrivals = np.full((arrays.num_vertices, num_samples), _NEG_INF)
    arrivals[source_rows] = 0.0
    is_source = np.zeros(arrays.num_vertices, dtype=bool)
    is_source[source_rows] = True
    permuted_delays = delays[schedule.perm]

    for rows, rounds in schedule.levels:
        acc = _fold_level_rounds(arrivals, permuted_delays, rounds, multi=False)
        seeded = is_source[rows]
        if seeded.any():
            # An input vertex with fanin keeps its 0.0 seed in the fold.
            acc[seeded] = np.maximum(acc[seeded], arrivals[rows[seeded]])
        arrivals[rows] = acc
    return arrivals


def _multi_source_groups(
    arrays: GraphArrays,
    delays: np.ndarray,
    source_rows: np.ndarray,
    group_size: int,
) -> Iterator[Tuple[int, int, np.ndarray]]:
    """Per-source longest paths of consecutive groups of sources.

    Yields ``(low, high, arrivals)`` per group, ``arrivals`` being the
    ``(V, high - low, S)`` block of ``source_rows[low:high]``:
    ``arrivals[:, k, :]`` is exactly the matrix the single-source kernel
    produces for ``source_rows[low + k]`` alone.  The source axis shares
    every gather of the sampled delay matrix across a group, so the
    per-input Table-I reference costs one fold per group instead of one
    per input, and all groups share the delay matrix permuted once into
    fold order.  Each block is fresh: only the rows no level writes — the
    fanin-free vertices and the sources, whose seed the fold reads — are
    initialised.
    """
    num_sources = source_rows.shape[0]
    num_samples = delays.shape[1]
    is_source = np.zeros(arrays.num_vertices, dtype=bool)
    is_source[source_rows] = True
    unwritten = np.flatnonzero(is_source | (arrays.fanin_counts() == 0))
    schedule = _forward_schedule(arrays)
    permuted_delays = delays[schedule.perm]
    # An input vertex with fanin keeps its 0.0 seed in the fold.
    levels = [
        (rows, rounds, is_source[rows] if is_source[rows].any() else None)
        for rows, rounds in schedule.levels
    ]
    for low in range(0, num_sources, group_size):
        high = min(low + group_size, num_sources)
        arrivals = np.empty((arrays.num_vertices, high - low, num_samples))
        arrivals[unwritten] = _NEG_INF
        arrivals[source_rows[low:high], np.arange(high - low)] = 0.0
        for rows, rounds, seeded in levels:
            acc = _fold_level_rounds(arrivals, permuted_delays, rounds, multi=True)
            if seeded is not None:
                acc[seeded] = np.maximum(acc[seeded], arrivals[rows[seeded]])
            arrivals[rows] = acc
        yield low, high, arrivals


def _reachable_from(arrays: GraphArrays, source_rows: np.ndarray) -> np.ndarray:
    """``(V, I)`` boolean reachability from each source (sources included).

    The structural analogue of the longest-path kernels: one boolean
    segment reduction per level instead of per-sample finiteness checks.
    """
    num_sources = source_rows.shape[0]
    reach = np.zeros((arrays.num_vertices, num_sources), dtype=bool)
    reach[source_rows, np.arange(num_sources)] = True
    edge_source = arrays.edge_source

    for level in arrays.forward_levels():
        rows = level.vertex_rows
        edge_rows, starts = _level_fanin(arrays, rows)
        reduced = np.logical_or.reduceat(
            reach[edge_source[edge_rows]], starts, axis=0
        )
        reach[rows] |= reduced
    return reach


# ----------------------------------------------------------------------
# One-shot simulators
# ----------------------------------------------------------------------
def _simulate_delay_range(
    arrays: GraphArrays,
    seed: int,
    num_samples: int,
    start: int,
    stop: int,
    chunk_size: int,
) -> np.ndarray:
    """Circuit-delay samples ``[start, stop)`` of a ``num_samples`` run.

    The unit of work of the sharded delay simulation: per-sample values are
    exact (``max`` and ``+`` have no rounding), so any partitioning of the
    sample axis into ranges — and any chunking within a range — reproduces
    the same values bit for bit.
    """
    input_rows = arrays.input_rows
    output_rows = arrays.output_rows
    samples = np.empty(stop - start, dtype=float)
    done = start
    while done < stop:
        chunk = min(chunk_size, stop - done)
        delays = _sample_delay_range(arrays, seed, num_samples, done, done + chunk)
        arrivals = _longest_paths_levelized(arrays, delays, input_rows)
        samples[done - start : done - start + chunk] = arrivals[output_rows].max(
            axis=0
        )
        done += chunk
    return samples


def simulate_graph_delay(
    graph: TimingGraph,
    num_samples: int = 10000,
    seed: int = 0,
    chunk_size: Optional[int] = None,
    workers: Optional[int] = None,
    executor=None,
    arrays: Optional[GraphArrays] = None,
) -> MonteCarloResult:
    """Monte Carlo distribution of the graph's input-to-output delay.

    The delay of one sample is the maximum, over all designated outputs, of
    the longest path from any designated input with that sample's edge
    delays.  ``chunk_size=None`` auto-sizes the sample chunks from the
    graph size (see :func:`auto_chunk_size`).  Sampling is counter-based
    per block, so the samples depend only on ``(seed, num_samples)`` —
    every chunk size and every worker count produce bit-identical
    samples.

    ``workers`` (or the ``REPRO_WORKERS`` environment variable, or an
    explicit :class:`~repro.parallel.pool.ShardedExecutor` via
    ``executor``) shards block-aligned sample ranges across a process pool
    over a shared-memory snapshot of the graph arrays; when shared memory
    is unavailable or only one worker resolves, the run falls back to this
    serial path with identical results.

    Passing prebuilt ``arrays`` (the :func:`propagate_arrival_times_batch`
    pattern) skips the per-call :meth:`GraphArrays.from_graph` rebuild —
    at million-edge scale that rebuild plus the levelized schedule costs
    several times the sampling-and-propagation work itself, so repeated
    callers should build once and reuse.  Arrays of another graph or of
    an older revision raise :class:`~repro.errors.TimingGraphError`; call
    :meth:`GraphArrays.refresh` after editing the graph.
    """
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    if not graph.inputs or not graph.outputs:
        raise TimingGraphError("Monte Carlo needs designated inputs and outputs")

    from repro.parallel.pool import maybe_executor

    start = time.perf_counter()
    arrays = _graph_arrays(graph, arrays)
    chunk_size = _resolve_chunk_size(chunk_size, arrays, 1, num_samples)
    executor = maybe_executor(workers, executor)
    if executor is not None and executor.engine != "process":
        executor = None  # graceful serial fallback (bit-identical)
    map_report = None
    if executor is not None:
        from repro.parallel.shard import partition_samples

        ranges = partition_samples(num_samples, executor.workers, MC_SAMPLE_BLOCK)
        payloads = [
            (seed, num_samples, lo, hi, chunk_size) for lo, hi in ranges
        ]
        parts, map_report = executor.run_with_report(
            "mc_delay_range", payloads, arrays
        )
        samples = np.concatenate(parts)
    else:
        samples = _simulate_delay_range(
            arrays, seed, num_samples, 0, num_samples, chunk_size
        )
    elapsed = time.perf_counter() - start
    return MonteCarloResult(
        samples=samples, elapsed_seconds=elapsed, map_report=map_report
    )


def _io_group_size(arrays: GraphArrays, chunk: int) -> int:
    """How many inputs one multi-source pass of ``chunk`` samples covers.

    The largest ``g`` whose working set ``(E + (V + E) * g) * chunk`` —
    the cost model of :func:`auto_chunk_size` with ``g`` sources — fits
    :func:`mc_chunk_budget`, clamped to ``[1, |I|]``: one source is the
    floor, so a budget below even that still propagates one input at a
    time instead of failing.
    """
    num_edges = arrays.edge_mean.shape[0]
    per_source = arrays.num_vertices + num_edges
    group = (mc_chunk_budget() // max(chunk, 1) - num_edges) // max(per_source, 1)
    return int(min(max(group, 1), arrays.input_rows.shape[0]))


def _io_plan(
    chunk_size: Optional[int], arrays: GraphArrays, num_samples: int
) -> Tuple[int, int]:
    """``(chunk_size, group_size)`` of one :func:`simulate_io_delays` run.

    An explicit ``chunk_size`` wins; ``None`` auto-sizes the chunk for one
    group of sources — the group that fits the budget at a one-block
    chunk — instead of the whole ``|I|`` axis.  Chunks cover whole sample
    blocks so every block's moment partial is reduced in one piece, and
    the group size is then taken at the chunk actually propagated.
    """
    sources = _io_group_size(arrays, min(MC_SAMPLE_BLOCK, num_samples))
    chunk_size = _resolve_chunk_size(chunk_size, arrays, sources, num_samples)
    chunk_size = max(
        MC_SAMPLE_BLOCK, chunk_size // MC_SAMPLE_BLOCK * MC_SAMPLE_BLOCK
    )
    return chunk_size, _io_group_size(arrays, min(chunk_size, num_samples))


def _io_block_moments(
    arrays: GraphArrays,
    seed: int,
    num_samples: int,
    start: int,
    stop: int,
    chunk_size: int,
    group_size: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-block IO moment partials of samples ``[start, stop)``.

    ``start``/``stop`` must be block-aligned (``stop`` may be the final
    partial block's end) and ``chunk_size`` a block multiple (see
    :func:`_io_plan`).  Returns ``(sums, square_sums)`` stacks of shape
    ``(blocks, I, O)``: entry ``k`` holds the output-arrival moment sums of
    the ``k``-th covered block.  The per-block partial is the canonical
    accumulation unit — a fixed-length reduction over one whole block — so
    it is invariant to the chunking that computed it, and summing the
    stacks in ascending block order reproduces the serial statistics bit
    for bit no matter how the blocks were sharded.

    Each chunk's sampled delays are shared by consecutive groups of
    ``group_size`` inputs, one ``(V, group_size, chunk)`` multi-source pass
    per group, so the arrival block stays within the budget the group was
    sized for.  Per-input propagations are independent, so every group
    size yields the same partials bit for bit.
    """
    input_rows = arrays.input_rows
    output_rows = arrays.output_rows
    num_inputs = input_rows.shape[0]
    shape = (-(-(stop - start) // MC_SAMPLE_BLOCK), num_inputs, output_rows.shape[0])
    sums = np.empty(shape)
    square_sums = np.empty(shape)
    done = start
    while done < stop:
        chunk = min(chunk_size, stop - done)
        first_block = (done - start) // MC_SAMPLE_BLOCK
        delays = _sample_delay_range(arrays, seed, num_samples, done, done + chunk)
        for low, high, arrivals in _multi_source_groups(
            arrays, delays, input_rows, group_size
        ):
            output_arrivals = arrivals[output_rows].transpose(1, 0, 2)  # (g, O, chunk)
            finite = np.where(np.isfinite(output_arrivals), output_arrivals, 0.0)
            for position, offset in enumerate(range(0, chunk, MC_SAMPLE_BLOCK)):
                block = finite[:, :, offset : offset + MC_SAMPLE_BLOCK]
                sums[first_block + position, low:high] = block.sum(axis=2)
                square_sums[first_block + position, low:high] = (block * block).sum(
                    axis=2
                )
        done += chunk
    return sums, square_sums


def simulate_io_delays(
    graph: TimingGraph,
    num_samples: int = 10000,
    seed: int = 0,
    chunk_size: Optional[int] = None,
    workers: Optional[int] = None,
    executor=None,
    arrays: Optional[GraphArrays] = None,
) -> IoDelayStatistics:
    """Monte Carlo mean and sigma of every input-to-output delay.

    This is the reference used for the ``merr``/``verr`` columns of Table I.
    The levelized kernel propagates consecutive groups of inputs, one
    ``(V, g, chunk)`` pass per group sharing a single sampled delay matrix,
    with ``g`` the largest group whose working set fits the chunk budget
    (at least one input).  Sampling is counter-based per block and moments
    accumulate per block in ascending order, so the statistics are
    bit-identical across chunk sizes, group sizes and worker counts for
    the same ``(seed, num_samples)``.  The ``valid`` mask is derived
    structurally from per-input reachability, so a pair is NaN exactly
    when no path connects it.  ``chunk_size=None`` auto-sizes the chunks
    for one input group; ``workers`` / ``executor`` shard block ranges
    exactly like :func:`simulate_graph_delay`, every shard using the
    caller's group size; so do prebuilt ``arrays``, which must be current.
    """
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    if not graph.inputs or not graph.outputs:
        raise TimingGraphError("Monte Carlo needs designated inputs and outputs")

    from repro.parallel.pool import maybe_executor

    start = time.perf_counter()
    arrays = _graph_arrays(graph, arrays)
    num_inputs = len(graph.inputs)
    num_outputs = len(graph.outputs)
    input_rows = arrays.input_rows
    output_rows = arrays.output_rows
    chunk_size, group_size = _io_plan(chunk_size, arrays, num_samples)
    executor = maybe_executor(workers, executor)
    if executor is not None and executor.engine != "process":
        executor = None  # graceful serial fallback (bit-identical)

    # Structural validity: a pair is connected iff the output is reachable
    # from the input, independently of any sampled delay values.
    reachable = np.ascontiguousarray(_reachable_from(arrays, input_rows)[output_rows].T)

    map_report = None
    if executor is not None:
        from repro.parallel.shard import partition_samples

        ranges = partition_samples(num_samples, executor.workers, MC_SAMPLE_BLOCK)
        payloads = [
            (seed, num_samples, lo, hi, chunk_size, group_size)
            for lo, hi in ranges
        ]
        parts, map_report = executor.run_with_report(
            "mc_io_blocks", payloads, arrays
        )
        stacks = [part[0] for part in parts], [part[1] for part in parts]
        sums_stack = np.concatenate(stacks[0])
        square_stack = np.concatenate(stacks[1])
    else:
        sums_stack, square_stack = _io_block_moments(
            arrays, seed, num_samples, 0, num_samples, chunk_size, group_size
        )

    # Sequential per-block accumulation in ascending block order: the exact
    # same sequence of additions as any other partitioning of the blocks.
    sums = np.zeros((num_inputs, num_outputs), dtype=float)
    square_sums = np.zeros((num_inputs, num_outputs), dtype=float)
    for position in range(sums_stack.shape[0]):
        sums += sums_stack[position]
        square_sums += square_stack[position]

    means = sums / float(num_samples)
    variances = np.maximum(square_sums / float(num_samples) - means * means, 0.0)
    stds = np.sqrt(variances) * np.sqrt(
        num_samples / max(num_samples - 1, 1)
    )
    means = np.where(reachable, means, np.nan)
    stds = np.where(reachable, stds, np.nan)
    elapsed = time.perf_counter() - start
    return IoDelayStatistics(
        inputs=graph.inputs,
        outputs=graph.outputs,
        means=means,
        stds=stds,
        valid=reachable,
        num_samples=num_samples,
        elapsed_seconds=elapsed,
        map_report=map_report,
    )


# ----------------------------------------------------------------------
# Incremental Monte Carlo sessions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MonteCarloRefresh:
    """What one :meth:`MonteCarloSession.refresh` call actually did.

    ``kind`` is ``"initial"`` (first full sample), ``"noop"`` (empty
    journal window), ``"rows"`` (retime-only window: only the named edge
    rows were resampled), ``"structure"`` (surviving rows migrated, added
    and retimed rows sampled) or ``"full"`` (journal overflow or an IO
    designation change: complete resample).  ``resampled_rows`` counts the
    matrix rows that were drawn fresh; ``revision`` is the graph revision
    the sample matrix now reflects.
    """

    kind: str
    resampled_rows: int
    revision: int


class MonteCarloSession:
    """An incrementally maintained Monte Carlo simulation of one graph.

    Where :func:`simulate_graph_delay` resamples and repropagates from
    scratch on every call, a session attaches to one graph's revisioned
    change journal and keeps the sampled ``(E, S)`` edge-delay matrix —
    plus, when it fits the memory budget, the propagated ``(V, S)``
    arrival matrix — alive as caches keyed to the graph revision:

    * a retime-only journal window resamples **only the retimed rows** and
      repropagates only the samples' structural fan-out cone;
    * a structural window migrates the surviving rows of the delay matrix
      (added/retimed rows are drawn fresh) and repropagates fully;
    * journal overflow or an input/output designation change falls back to
      a full resample.

    Sampling is **counter-based per edge**: the correlated component draws
    are keyed to ``(seed, 0)`` and each edge's private noise stream to
    ``(seed, 1, edge_id)``, so a patched matrix is identical to the matrix a
    cold session would sample from the edited graph — warm revalidation
    matches a cold run to floating-point round-off (asserted at 1e-9 by
    the parity tests).  Note this per-edge stream layout differs from the
    one-shot simulators' per-block streams (``(seed, 2, block)``): a
    session and :func:`simulate_graph_delay` agree in distribution, not
    sample by sample.
    """

    def __init__(
        self,
        graph: TimingGraph,
        num_samples: int = 10000,
        seed: int = 0,
        chunk_size: Optional[int] = None,
        cache_arrivals: Optional[bool] = None,
    ) -> None:
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        if not graph.inputs or not graph.outputs:
            raise TimingGraphError("Monte Carlo needs designated inputs and outputs")
        graph.enable_journal()
        self._graph = graph
        self._arrays = GraphArrays.from_graph(graph)
        self._num_samples = int(num_samples)
        self._seed = int(seed)
        self._chunk_size = chunk_size
        if cache_arrivals is None:
            cache_arrivals = (
                self._arrays.num_vertices * self._num_samples
                <= MC_ARRIVALS_CACHE_MAX_FLOATS
            )
        self._cache_arrivals = bool(cache_arrivals)
        self._correlated_draws: Optional[np.ndarray] = None
        self._delays: Optional[np.ndarray] = None
        self._arrivals: Optional[np.ndarray] = None
        # Sink rows whose arrivals a warm repropagation must recompute.
        self._dirty_sink_rows: Dict[int, None] = {}
        # Whether the next propagation must cover every vertex (initial
        # pass, structural window, full resample, or cold arrival cache).
        self._needs_full_propagate = True
        self._matrix_serial = 0
        self._result: Optional[MonteCarloResult] = None
        self._result_serial = -1
        self.last_refresh: Optional[MonteCarloRefresh] = None
        #: Why the last :meth:`load` fell back to a cold rebuild (``None``
        #: when the snapshot attached warm).
        self.store_fallback_reason: Optional[str] = None
        self.refresh()

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> TimingGraph:
        """The graph this session is attached to."""
        return self._graph

    @property
    def arrays(self) -> GraphArrays:
        """The session's (incrementally maintained) array view."""
        return self._arrays

    @property
    def num_samples(self) -> int:
        """Number of Monte Carlo iterations of the cached matrix."""
        return self._num_samples

    @property
    def seed(self) -> int:
        """Base seed of the session's counter-based sample streams."""
        return self._seed

    @property
    def revision(self) -> int:
        """Graph revision the cached sample matrix currently reflects."""
        return self._arrays.revision

    @property
    def edge_delay_samples(self) -> np.ndarray:
        """The cached ``(E, S)`` sampled edge-delay matrix (synchronised)."""
        self.refresh()
        return self._delays

    def nbytes_report(self) -> Dict[str, int]:
        """Byte accounting of the session caches: per cache plus total.

        Mirrors :meth:`repro.parallel.shm.SharedArraysHandle.nbytes_report`:
        the sampled ``(E, S)`` delay matrix, the optional ``(V, S)``
        arrival cache, the shared correlated draws and the underlying
        :class:`GraphArrays` working set.  No refresh is performed — the
        report describes the caches as currently held (0 before the first
        pass populates them).
        """
        report = {
            "delay_samples": int(self._delays.nbytes) if self._delays is not None else 0,
            "arrival_cache": int(self._arrivals.nbytes) if self._arrivals is not None else 0,
            "correlated_draws": (
                int(self._correlated_draws.nbytes)
                if self._correlated_draws is not None
                else 0
            ),
            "graph_arrays": int(self._arrays.nbytes_report()["total"]),
        }
        report["total"] = sum(report.values())
        return report

    # ------------------------------------------------------------------
    # Snapshots (see repro.store)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
        """The session's cached sample state as store columns plus metadata.

        Synchronises with the journal first, so the snapshot is keyed at
        the graph's current revision.  Captures everything warm: the
        ``(E, S)`` delay matrix, the shared correlated draws, the pending
        dirty cone, the optional arrival cache and the cached result —
        a restored session answers :meth:`revalidate` without resampling.
        """
        self.refresh()
        columns: Dict[str, np.ndarray] = {
            "mc.delays": self._delays,
            "mc.correlated_draws": self._correlated(),
            "mc.dirty_sink_rows": np.fromiter(
                self._dirty_sink_rows, np.int64, len(self._dirty_sink_rows)
            ),
        }
        if self._arrivals is not None:
            columns["mc.arrivals"] = self._arrivals
        if self._result is not None:
            columns["mc.result_samples"] = self._result.samples
        meta: Dict[str, Any] = {
            "num_samples": self._num_samples,
            "seed": self._seed,
            "chunk_size": None if self._chunk_size is None else int(self._chunk_size),
            "cache_arrivals": self._cache_arrivals,
            "needs_full_propagate": self._needs_full_propagate,
            "matrix_serial": self._matrix_serial,
            "has_arrivals": self._arrivals is not None,
            "has_result": self._result is not None,
            "result_serial": self._result_serial,
            "result_elapsed": (
                float(self._result.elapsed_seconds) if self._result is not None else 0.0
            ),
        }
        return columns, meta

    @classmethod
    def from_snapshot(
        cls,
        graph: TimingGraph,
        arrays: GraphArrays,
        columns: Mapping[str, np.ndarray],
        meta: Mapping[str, Any],
    ) -> "MonteCarloSession":
        """Reattach a session from stored columns without resampling.

        The delay and arrival matrices are copied (the session patches
        them in place); the correlated draws and the cached result samples
        are never mutated, so those keep the read-only (possibly memory-
        mapped) views the store handed over.
        """
        session = cls.__new__(cls)
        graph.enable_journal()
        session._graph = graph
        session._arrays = arrays
        session._num_samples = int(meta["num_samples"])
        session._seed = int(meta["seed"])
        chunk_size = meta.get("chunk_size")
        session._chunk_size = None if chunk_size is None else int(chunk_size)
        session._cache_arrivals = bool(meta["cache_arrivals"])
        session._correlated_draws = np.asarray(
            columns["mc.correlated_draws"], dtype=float
        )
        session._delays = np.array(columns["mc.delays"], dtype=float)
        session._arrivals = (
            np.array(columns["mc.arrivals"], dtype=float)
            if meta.get("has_arrivals")
            else None
        )
        session._dirty_sink_rows = {
            int(row): None for row in columns["mc.dirty_sink_rows"]
        }
        session._needs_full_propagate = bool(meta["needs_full_propagate"])
        session._matrix_serial = int(meta["matrix_serial"])
        if meta.get("has_result"):
            session._result = MonteCarloResult(
                samples=np.asarray(columns["mc.result_samples"], dtype=float),
                elapsed_seconds=float(meta.get("result_elapsed", 0.0)),
            )
            session._result_serial = int(meta["result_serial"])
        else:
            session._result = None
            session._result_serial = -1
        session.last_refresh = None
        session.store_fallback_reason = None
        return session

    def save(self, path) -> None:
        """Persist the session as one revision-keyed store entry."""
        from repro.store import save_montecarlo_session

        save_montecarlo_session(self, path)

    @classmethod
    def load(
        cls, path, graph: Optional[TimingGraph] = None, on_overflow: str = "error"
    ) -> "MonteCarloSession":
        """Restore a session saved by :meth:`save` (see ``repro.store``)."""
        from repro.store import load_montecarlo_session

        return load_montecarlo_session(path, graph=graph, on_overflow=on_overflow)

    # ------------------------------------------------------------------
    # Counter-based sampling
    # ------------------------------------------------------------------
    def _correlated(self) -> np.ndarray:
        """The shared correlated-component draws, ``(1 + K, S)`` (cached).

        Keyed to the seed alone: the correlated variables belong to the
        process, not to any edge, so they survive every graph edit.
        """
        if self._correlated_draws is None:
            rng = np.random.default_rng((self._seed, 0))
            self._correlated_draws = rng.standard_normal(
                (self._arrays.num_corr, self._num_samples)
            )
        return self._correlated_draws

    def _sample_block(self, rows: np.ndarray) -> np.ndarray:
        """Freshly drawn delay samples of the given edge rows, ``(R, S)``.

        Deterministic per edge: the private noise of edge ``edge_id`` comes
        from the stream ``(seed, 1, edge_id)``, so the same edge with the
        same coefficients always samples the same values no matter when —
        or in which refresh — its row is drawn.
        """
        arrays = self._arrays
        block = arrays.edge_corr[rows] @ self._correlated()
        block += arrays.edge_mean[rows, np.newaxis]
        sigma = np.sqrt(np.maximum(arrays.edge_randvar[rows], 0.0))
        for position, row in enumerate(rows):
            if sigma[position] > 0.0:
                noise = np.random.default_rng(
                    (self._seed, 1, int(arrays.edge_ids[row]))
                ).standard_normal(self._num_samples)
                block[position] += sigma[position] * noise
        return block

    def _resample_all(self) -> int:
        num_edges = self._arrays.edge_mean.shape[0]
        self._delays = self._sample_block(np.arange(num_edges, dtype=np.int64))
        self._arrivals = None
        self._dirty_sink_rows = {}
        self._needs_full_propagate = True
        self._matrix_serial += 1
        return num_edges

    # ------------------------------------------------------------------
    # Refresh: sync the sample matrix with the graph journal
    # ------------------------------------------------------------------
    def refresh(self) -> MonteCarloRefresh:
        """Synchronise the cached sample matrix with the graph revision.

        Raises :class:`~repro.errors.TimingGraphError` when the session is
        stale (attached to a graph behind its sync revision).
        """
        if self._delays is None:
            self._arrays.refresh()
            resampled = self._resample_all()
            refresh = MonteCarloRefresh("initial", resampled, self.revision)
            self.last_refresh = refresh
            return refresh

        old_row_of_id = self._arrays.edge_rows  # the pre-refresh dict object
        old_delays = self._delays
        arrays_refresh = self._arrays.refresh()
        delta = arrays_refresh.delta

        if arrays_refresh.kind == "rebuild" or (
            delta is not None and delta.io_changed
        ):
            # Journal overflow / IO designation change: full resample (the
            # counter-based streams make this value-identical for rows
            # whose edge survived unchanged — the fallback costs time, not
            # reproducibility).
            refresh = MonteCarloRefresh("full", self._resample_all(), self.revision)
        elif arrays_refresh.kind == "none":
            refresh = MonteCarloRefresh("noop", 0, self.revision)
        elif arrays_refresh.kind == "delay":
            rows = arrays_refresh.retimed_edge_rows
            if rows is None or rows.shape[0] == 0:
                refresh = MonteCarloRefresh("noop", 0, self.revision)
            else:
                self._delays[rows] = self._sample_block(rows)
                for row in self._arrays.edge_sink[rows]:
                    self._dirty_sink_rows[int(row)] = None
                self._matrix_serial += 1
                refresh = MonteCarloRefresh("rows", rows.shape[0], self.revision)
        else:  # "structure"
            refresh = MonteCarloRefresh(
                "structure", self._migrate(delta, old_row_of_id, old_delays),
                self.revision,
            )
        self.last_refresh = refresh
        return refresh

    def _migrate(self, delta, old_row_of_id: Dict[int, int], old_delays: np.ndarray) -> int:
        """Rebuild the delay matrix through a structural window.

        Surviving, un-retimed edges keep their sampled rows (one vectorized
        gather); added and retimed edges are drawn fresh from their
        counter-based streams, so the migrated matrix is exactly what a
        cold session on the edited graph would sample.  The arrival cache
        is dropped — the levelized schedules changed shape.
        """
        arrays = self._arrays
        num_edges = arrays.edge_mean.shape[0]
        retimed = set(delta.retimed_edges) if delta is not None else set()
        old_rows = np.fromiter(
            (
                -1 if int(edge_id) in retimed
                else old_row_of_id.get(int(edge_id), -1)
                for edge_id in arrays.edge_ids
            ),
            np.int64,
            num_edges,
        )
        keep = old_rows >= 0
        self._delays = np.empty((num_edges, self._num_samples), dtype=float)
        self._delays[keep] = old_delays[old_rows[keep]]
        fresh = np.nonzero(~keep)[0]
        if fresh.shape[0]:
            self._delays[fresh] = self._sample_block(fresh)
        self._arrivals = None
        self._dirty_sink_rows = {}
        self._needs_full_propagate = True
        self._matrix_serial += 1
        return int(fresh.shape[0])

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _chunk(self) -> int:
        return _resolve_chunk_size(
            self._chunk_size, self._arrays, 1, self._num_samples
        )

    def _propagate_full(self) -> np.ndarray:
        """Chunked levelized propagation of the whole cached matrix."""
        arrays = self._arrays
        input_rows = arrays.input_rows
        output_rows = arrays.output_rows
        samples = np.empty(self._num_samples, dtype=float)
        if self._cache_arrivals and (
            self._arrivals is None
            or self._arrivals.shape != (arrays.num_vertices, self._num_samples)
        ):
            self._arrivals = np.empty(
                (arrays.num_vertices, self._num_samples), dtype=float
            )
        chunk_size = self._chunk()
        done = 0
        while done < self._num_samples:
            chunk = min(chunk_size, self._num_samples - done)
            arrivals = _longest_paths_levelized(
                arrays, self._delays[:, done : done + chunk], input_rows
            )
            if self._cache_arrivals:
                self._arrivals[:, done : done + chunk] = arrivals
            samples[done : done + chunk] = arrivals[output_rows].max(axis=0)
            done += chunk
        if not self._cache_arrivals:
            self._arrivals = None
        return samples

    def _propagate_dirty(self, seed_rows: np.ndarray) -> np.ndarray:
        """Recompute only the structural fan-out cone of the retimed edges.

        ``seed_rows`` are the sink rows of the resampled delay rows; every
        vertex reachable from them is recomputed level by level from the
        cached arrivals of its (possibly clean) predecessors — the same
        fold as the full kernel, so the refreshed cache is bit-identical
        to a full repropagation of the patched matrix.
        """
        arrays = self._arrays
        mask = np.zeros(arrays.num_vertices, dtype=bool)
        mask[seed_rows] = True
        edge_source = arrays.edge_source
        is_input = np.zeros(arrays.num_vertices, dtype=bool)
        is_input[arrays.input_rows] = True

        levels = []
        for level in arrays.forward_levels():
            rows = level.vertex_rows
            edge_rows, starts = _level_fanin(arrays, rows)
            dirty = mask[rows]
            incoming = np.logical_or.reduceat(mask[edge_source[edge_rows]], starts)
            dirty |= incoming
            if not dirty.any():
                continue
            mask[rows[dirty]] = True
            rows_d = rows[dirty]
            edge_rows_d, starts_d = _level_fanin(arrays, rows_d)
            levels.append((rows_d, edge_rows_d, starts_d, is_input[rows_d]))

        chunk_size = self._chunk()
        done = 0
        while done < self._num_samples:
            hi = min(done + chunk_size, self._num_samples)
            for rows_d, edge_rows_d, starts_d, seeded in levels:
                candidates = (
                    self._arrivals[edge_source[edge_rows_d], done:hi]
                    + self._delays[edge_rows_d, done:hi]
                )
                reduced = np.maximum.reduceat(candidates, starts_d, axis=0)
                if seeded.any():
                    # Input vertices with fanin keep their 0.0 seed.
                    reduced[seeded] = np.maximum(reduced[seeded], 0.0)
                self._arrivals[rows_d, done:hi] = reduced
            done = hi
        return self._arrivals[arrays.output_rows].max(axis=0)

    def revalidate(self) -> MonteCarloResult:
        """The circuit-delay distribution, re-simulated incrementally.

        Synchronises with the journal first; a no-op window returns the
        cached result without touching the sample matrix, a retime-only
        window resamples the named rows and (with the arrival cache warm)
        repropagates only their structural fan-out cone, anything heavier
        repropagates the patched matrix fully.
        """
        self.refresh()
        if self._result is not None and self._result_serial == self._matrix_serial:
            return self._result
        start = time.perf_counter()
        warm = (
            not self._needs_full_propagate
            and self._cache_arrivals
            and self._arrivals is not None
            and self._dirty_sink_rows
        )
        if warm:
            seed_rows = np.fromiter(
                self._dirty_sink_rows, np.int64, len(self._dirty_sink_rows)
            )
            samples = self._propagate_dirty(seed_rows)
        else:
            samples = self._propagate_full()
        # Arrivals are warm again (when cached): subsequent retime windows
        # may repropagate just their fan-out cone.
        self._dirty_sink_rows = {}
        self._needs_full_propagate = not self._cache_arrivals
        elapsed = time.perf_counter() - start
        self._result = MonteCarloResult(samples=samples, elapsed_seconds=elapsed)
        self._result_serial = self._matrix_serial
        return self._result

    def __repr__(self) -> str:
        return "MonteCarloSession(%r, samples=%d, revision=%d)" % (
            self._graph.name,
            self._num_samples,
            self.revision,
        )
