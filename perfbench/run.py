"""Benchmark of the paper's flows through the public ``repro`` API.

Usage (from the repository root)::

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``table1``
    Table I: all-pairs analysis, edge criticality, reduction at threshold
    0.05 and an io Monte Carlo reference for each of the ten ISCAS85
    surrogates.
``fig7``
    Fig. 7: the four 16x16-multiplier design analysed hierarchically
    (replacement and global-only) against a serial flattened Monte Carlo.
``eco``
    A closed loop with one client: seeded what-if rounds that retime edges
    of one instance's module, re-extract it incrementally, swap it into the
    design timer and revalidate Monte Carlo, then a store warm restart.
``fig7-sharded``
    ``fig7`` with the Monte Carlo reference sharded over a freshly spawned
    process pool.

Each run happens in a fresh interpreter (``child.py``) with
``PYTHONHASHSEED`` and the BLAS/OpenMP thread counts pinned and every
``REPRO_*`` variable removed.  It sets up three times (``setup_s`` is the
median) and then runs ``round(seconds / nominal episode length)`` episodes,
each a fixed unit of work: the whole table, one Fig. 7 comparison, or
twelve what-if rounds plus a store warm restart.  ``--seed`` drives the
``eco`` edit sequence; every Monte Carlo stream uses the paper
configuration's fixed seed, so the accuracy metrics are deterministic.

``--trace 0`` reports the end-to-end metrics of one untraced run:

* ``wall_s``: median episode wall time;
* ``setup_s``: median set-up time;
* ``peak_rss_mb``: peak resident set of the workload process, pool
  workers excluded (their peak is ``parallel.worker_rss_mb``);
* ``success_rate``: operations (rows, analyses, rounds, restarts, map
  tasks) that completed and passed their check, over those attempted;
* ``whatif_p50_ms``, ``whatif_tail_ms``: median and tail latency of one
  query (an ``eco`` round; the whole table; one Fig. 7 comparison).  The
  tail is the highest nearest-rank percentile with at least ten queries
  beyond it, the maximum below eleven; the record gives both;
* ``edge_ratio``, ``vertex_ratio``: Em/Eo and Vm/Vo of the extracted models
  (mean over the ``table1`` rows; the 16-bit module elsewhere);
* ``mean_err_pct``, ``std_err_pct``: model against Monte Carlo (``table1``:
  mean over rows of merr and verr; ``fig7``: the replacement analysis'
  mean and sigma; ``eco``: the module model's delay).

``--trace 1`` makes one untraced and one traced run and reports the
per-layer metrics of the traced one: ``<layer>_s`` is the self time of the
spans around the calls into that layer, summed per set-up or per episode,
median over them; counts are per episode; layers a workload does not
exercise read 0.  ``bench.trace_overhead_pct`` compares the two runs'
``wall_s``.

The last line of standard output is the result as one JSON object; the
lines before it list every metric with its unit and every check.  The full
record (host fingerprint, pinned environment, checks, per-operation
latencies) is written under ``.perfbench/results/``; ``--trace 1`` also
keeps the spans there.  ``--toy`` runs the toy sizes of the smoke test
(``python3 perfbench/smoke.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table1", "fig7", "eco", "fig7-sharded")

#: Environment every workload process runs under.  Pool workers inherit it.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Seconds one invocation may take in total.
DEADLINE_S = 170.0


def fail(message: str) -> int:
    print("perfbench: %s" % message, file=sys.stderr)
    return 1


def workload_env(scratch: str):
    """The pinned environment and the names of the variables removed."""
    removed = sorted(
        name for name in os.environ
        if name.startswith("REPRO_") or (name.startswith("PYTHON") and name != "PYTHONHOME")
    )
    env = {name: value for name, value in os.environ.items() if name not in removed}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["TMPDIR"] = scratch
    return env, removed


def _group_gone(pgid: int, seconds: float) -> bool:
    """Wait up to ``seconds`` for every process of group ``pgid`` to end."""
    deadline = time.monotonic() + seconds
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.1)


def stop_group(process: subprocess.Popen) -> None:
    """Kill what is left of the child's process group and wait for it."""
    if process.poll() is None:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
    if not _group_gone(process.pid, 10.0):
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        _group_gone(process.pid, 5.0)


def run_child(args, trace: bool, scratch: str, env, deadline: float, spans: str = ""):
    """Run one workload process; returns its record or ``None``."""
    tag = "traced" if trace else "untraced"
    out = os.path.join(scratch, "%s.json" % tag)
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
        "--scratch", scratch, "--out", out, "--spans", spans,
    ]
    if args.toy:
        command.append("--toy")
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True
    )
    try:
        code = process.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        stop_group(process)
    if code != 0:
        fail("%s %s run %s" % (
            args.workload, tag, "timed out" if code is None else "exited with %d" % code
        ))
        return None
    with open(out) as handle:
        record = json.load(handle)
    if spans:
        record["spans_file"] = spans
    return record


def declared_metrics():
    """``(end_to_end, per_layer)`` name -> unit maps from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return (
        {metric["name"]: metric["unit"] for metric in spec["end_to_end"]},
        {metric["name"]: metric["unit"] for metric in spec["per_layer"]},
    )


def select(values, declared, fill_missing: bool):
    """The declared metrics with their units, or ``None`` on a mismatch.

    Per-layer metrics of layers a workload does not exercise are reported
    as 0 (``fill_missing``); a missing end-to-end metric or an undeclared
    one is an error.
    """
    undeclared = sorted(set(values) - set(declared))
    missing = sorted(set(declared) - set(values))
    if undeclared or (missing and not fill_missing):
        fail("metrics not declared in BENCHMARK.json: %s; declared but not produced: %s"
             % (", ".join(undeclared) or "-", ", ".join(missing) or "-"))
        return None
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in declared.items()
    }


def report(args, records, metrics) -> None:
    """Print every metric with its unit and every check outcome."""
    print("workload %s seed %d trace %d" % (args.workload, args.seed, args.trace))
    print("%-36s %16s  %s" % ("metric", "value", "unit"))
    for name, entry in metrics.items():
        print("%-36s %16.6g  %s" % (name, entry["value"], entry["unit"]))
    for record in records:
        tail = record["tail"]
        print("[%s] operations %d attempted, %d failed; tail = p%.1f of %d operations"
              % ("traced" if record["trace"] else "untraced", record["attempted"],
                 record["failed"], tail["percentile"], tail["count"]))
        for check in record["checks"]:
            print("  %-4s %s %s" % ("ok" if check["ok"] else "FAIL", check["name"],
                                    check["detail"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark of the paper's flows; see the module docstring."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true", help="toy sizes (smoke test)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        return fail("no program to measure: %s/src/repro is missing" % ROOT)
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        return fail("BENCHMARK.json is missing")
    end_to_end_units, per_layer_units = declared_metrics()

    state = os.path.join(ROOT, ".perfbench")
    scratch = os.path.join(state, "run-%d" % os.getpid())
    results = os.path.join(state, "results")
    stem = "%s-seed%d-trace%d-%d" % (args.workload, args.seed, args.trace, os.getpid())
    os.makedirs(scratch)
    os.makedirs(results, exist_ok=True)
    try:
        env, removed = workload_env(scratch)
        untraced = run_child(args, False, scratch, env, deadline)
        if untraced is None:
            return 1
        records = [untraced]
        if args.trace:
            spans = os.path.join(results, stem + "-spans.jsonl")
            traced = run_child(args, True, scratch, env, deadline, spans)
            if traced is None:
                return 1
            records.append(traced)
            values = dict(traced["per_layer"])
            base = untraced["end_to_end"]["wall_s"]
            values["bench.trace_overhead_pct"] = (
                100.0 * (traced["end_to_end"]["wall_s"] - base) / base
            )
            metrics = select(values, per_layer_units, fill_missing=True)
        else:
            metrics = select(untraced["end_to_end"], end_to_end_units, fill_missing=False)
        if metrics is None:
            return 1

        record_path = os.path.join(results, stem + ".json")
        with open(record_path, "w") as handle:
            json.dump({"metrics": metrics, "runs": records,
                       "pinned_environment": {name: env[name] for name in sorted(PINNED_ENV)},
                       "removed_environment": removed}, handle, indent=1, sort_keys=True)

        report(args, records, metrics)
        print("record: %s" % record_path)
        result = {
            "correct": all(record["correct"] for record in records),
            "attempted": sum(record["attempted"] for record in records),
            "failed": sum(record["failed"] for record in records),
            "metrics": metrics,
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
