"""One benchmark run of one workload, in a fresh interpreter.

``run.py`` starts this script with a pinned environment and reads the JSON
record it writes to ``--out``.  The run:

1. imports the program, then runs the workload once at toy size, untimed,
   so that imports and lazy first-call set-up are done before anything is
   timed;
2. sets it up ``SETUP_REPEATS`` more times, timing each (``setup_s`` is
   their median) and keeps the last state;
3. runs ``round(seconds / nominal episode length)`` episodes, at least
   one, timing each (``wall_s`` is their median);
4. checks the outputs outside the timed phases.

With ``--trace 1`` every timed call is recorded as a span and the per-layer
self times are reported; the spans are written to ``--spans``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Timed set-ups per run (after the untimed toy-size warm-up).
SETUP_REPEATS = 3


def tail_latency(values: List[float]):
    """``(value, percentile, count)``: the highest nearest-rank percentile
    with at least ten values beyond it (the maximum below 11 values)."""
    ordered = sorted(values)
    count = len(ordered)
    index = count - 11 if count >= 11 else count - 1
    return ordered[index], 100.0 * (index + 1) / count, count


def _median_by_name(tables: List[Dict[str, float]]) -> Dict[str, float]:
    names = sorted({name for table in tables for name in table})
    return {
        name: statistics.median(table.get(name, 0.0) for table in tables)
        for name in names
    }


def _read_git_revision() -> str:
    """The checked-out commit, read from ``.git`` (no git process)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    """SHA-256 over the program's sources (identifies the code without git)."""
    import hashlib

    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> Dict[str, Any]:
    """Host, toolchain and environment the run measured."""
    import numpy
    import scipy

    from repro.core.backend import resolve_backend

    backend = resolve_backend()
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "backend": {
            "requested": backend.requested,
            "resolved": backend.backend,
            "fallback_reason": backend.fallback_reason,
        },
        "git_revision": _read_git_revision(),
        "source_sha256": _source_digest(),
        "pythonpath": os.environ.get("PYTHONPATH"),
    }


def run(args) -> Dict[str, Any]:
    import repro

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(repro.__file__).startswith(src):
        raise SystemExit("repro imported from %s, not from %s" % (repro.__file__, src))

    import flows
    from spans import Tracer

    sizes = flows.TOY if args.toy else flows.FULL
    tracer = Tracer(False, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    workload = flows.WORKLOADS[args.workload](sizes, args.seed, tracer, args.scratch)

    # Warm-up at toy size, untimed and untraced: every code path the run
    # takes is imported and through its lazy first-call set-up.
    warm = flows.WORKLOADS[args.workload](flows.TOY, args.seed, tracer, args.scratch)
    warm_state = warm.setup()
    warm_record = warm.episode(warm_state, 0)
    warm.teardown(warm_state, warm_record)
    warm.after_episode(warm_state, warm_record)
    del warm, warm_state, warm_record
    tracer.enabled = bool(args.trace)

    setup_times, setup_roots = [], []
    state = None
    for _repeat in range(SETUP_REPEATS):
        state = None
        gc.collect()
        with tracer.span("bench.setup") as root:
            start = perf_counter()
            state = workload.setup()
            setup_times.append(perf_counter() - start)
        setup_roots.append(root)
    workload.setup_counts(state)

    walls, episode_roots, teardown_roots = [], [], []
    for index in range(workload.episodes(args.seconds)):
        gc.collect()
        with tracer.span("bench.episode") as root:
            start = perf_counter()
            record = workload.episode(state, index)
            walls.append(perf_counter() - start)
        episode_roots.append(root)
        with tracer.span("bench.teardown") as root:
            workload.teardown(state, record)
        teardown_roots.append(root)
        workload.after_episode(state, record)
        del record
    # Peak resident set of this process; pool workers are not included.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workers_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    workload.finish(state)

    outcomes = workload.outcomes
    tail, percentile, count = tail_latency(workload.latencies)
    end_to_end = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "success_rate": (outcomes.attempted - outcomes.failed) / max(outcomes.attempted, 1),
        "whatif_p50_ms": 1000.0 * statistics.median(workload.latencies),
        "whatif_tail_ms": 1000.0 * tail,
    }
    end_to_end.update(workload.accuracy)

    per_layer: Dict[str, float] = {}
    if tracer.enabled:
        layers = _median_by_name([tracer.self_times(root) for root in setup_roots])
        episodes = []
        for root, teardown in zip(episode_roots, teardown_roots):
            table = tracer.self_times(root)
            for name, value in tracer.self_times(teardown).items():
                table[name] = table.get(name, 0.0) + value
            episodes.append(table)
        for name, value in _median_by_name(episodes).items():
            layers[name] = layers.get(name, 0.0) + value
        per_layer = {name + "_s": value for name, value in layers.items()}
        per_layer["bench.unattributed_s"] = statistics.median(
            tracer.unattributed(root) for root in episode_roots
        )
        per_layer.update(workload.derived(per_layer))
        if args.spans:
            tracer.dump(args.spans)
    per_layer.update(workload.counts)
    if args.workload == "fig7-sharded":
        per_layer["parallel.worker_rss_mb"] = workers_rss_mb

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "toy": bool(args.toy),
        "correct": outcomes.correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "setup_times_s": setup_times,
        "episode_walls_s": walls,
        "operation_latencies_s": workload.latencies,
        "tail": {"percentile": percentile, "count": count},
        "checks": outcomes.checks,
        "info": workload.info,
        "fingerprint": fingerprint(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)
    result = run(args)
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
