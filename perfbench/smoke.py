"""Smoke test of the benchmark itself, at toy sizes.

Run from the repository root::

    python3 perfbench/smoke.py

For every workload it makes an untraced and a traced toy run (c432,
4-bit multipliers, three what-if rounds per episode) through ``run.py`` and
asserts that:

* the last output line is the result object with exactly the keys
  ``correct``, ``attempted``, ``failed`` and ``metrics``, and every check
  passed;
* every end-to-end metric of ``BENCHMARK.json`` is emitted, with its unit,
  and is not 0; every per-layer metric is emitted with its unit, and the
  layers the workload exercises are not 0;
* the traced spans nest: each lies inside its parent, the roots are the
  benchmark's set-up, episode and teardown spans, and every other span is
  named after a ``repro`` layer;
* the ``eco`` checks pass on a second seed;
* without the program next to it, the benchmark fails without a result.

Exits 0 when everything holds and 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

LAYERS = ("liberty", "netlist", "placement", "variation", "timing", "model",
          "montecarlo", "hier", "parallel", "store")
ROOTS = ("bench.setup", "bench.episode", "bench.teardown")

#: Per-layer metrics each workload must report as non-zero.
EXERCISED = {
    "table1": (
        "netlist.generate_s", "placement.place_s", "timing.build_s", "timing.graph_edges",
        "timing.allpairs_s", "timing.allpairs_mb", "model.criticality_s",
        "model.criticality_edges", "model.reduce_s", "model.kept_edges", "montecarlo.io_s",
        "montecarlo.io_chunk", "montecarlo.io_block_mb", "montecarlo.io_budget_x",
    ),
    "fig7": (
        "model.extract_module_s", "hier.design_build_s", "hier.analyze_replacement_s",
        "hier.analyze_global_only_s", "hier.design_edges", "hier.speedup_vs_mc",
        "montecarlo.flatten_s", "montecarlo.delay_s", "montecarlo.samples_per_s",
    ),
    "eco": (
        "model.extract_module_s", "hier.timer_build_s", "model.session_attach_s",
        "montecarlo.session_cold_s", "timing.retime_s", "model.session_refresh_s",
        "timing.allpairs_fwd_cone", "timing.allpairs_cone_frac", "model.session_reduce_s",
        "hier.swap_s", "timing.incremental_s", "timing.incremental_cone",
        "montecarlo.revalidate_s", "montecarlo.resampled_rows",
        "montecarlo.rows_refresh_frac", "store.save_s", "store.load_s", "store.bundle_mb",
        "store.warm_vs_cold",
    ),
    "fig7-sharded": (
        "montecarlo.delay_s", "parallel.spawn_s", "parallel.close_s", "parallel.tasks",
        "parallel.attempts", "parallel.useful_ratio", "parallel.speedup",
        "parallel.worker_rss_mb",
    ),
}


def bench(workload: str, seed: int, trace: int, root: str = ROOT):
    """Run ``run.py`` at toy size; returns ``(exit code, stdout lines)``."""
    command = [
        sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--toy",
    ]
    done = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=170)
    return done.returncode, done.stdout.splitlines()


def check_result(lines, declared, exercised, trace: int):
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], sorted(result)
    assert result["correct"] is True, [line for line in lines if "FAIL" in line]
    assert result["attempted"] >= 1 and result["failed"] == 0, result
    metrics = result["metrics"]
    assert set(metrics) == set(declared), sorted(set(declared) ^ set(metrics))
    for name, unit in declared.items():
        assert metrics[name]["unit"] == unit, (name, metrics[name])
        value = metrics[name]["value"]
        assert isinstance(value, float), (name, value)
        if not trace or name in exercised:
            assert value != 0.0, "%s is 0" % name


def check_spans(lines) -> int:
    record_path = next(line.split(": ", 1)[1] for line in lines if line.startswith("record: "))
    with open(record_path) as handle:
        record = json.load(handle)
    traced = record["runs"][-1]
    with open(traced["spans_file"]) as handle:
        spans = [json.loads(line) for line in handle]
    assert spans, "no spans recorded"
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        assert span["run"] == spans[0]["run"], span
        assert span["start"] <= span["end"], span
        if span["parent"] is None:
            assert span["name"] in ROOTS, span
            continue
        assert span["name"].split(".")[0] in LAYERS, span
        parent = by_id[span["parent"]]
        assert parent["start"] <= span["start"] and span["end"] <= parent["end"], (span, parent)
    return len(spans)


def check_without_program() -> None:
    """In a directory holding only BENCHMARK.json and the benchmark, the
    run must fail and print no result."""
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = bench("fig7", 1, 0, root=bare)
        assert code != 0, "run without the program exited 0"
        assert not any(line.startswith("{") for line in lines), lines
    finally:
        shutil.rmtree(bare)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = {
        0: {metric["name"]: metric["unit"] for metric in spec["end_to_end"]},
        1: {metric["name"]: metric["unit"] for metric in spec["per_layer"]},
    }
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(EXERCISED)
    failures = 0
    cases = [(w, 1, t) for w in EXERCISED for t in (0, 1)] + [("eco", 7, 0)]
    for workload, seed, trace in cases:
        label = "%s seed %d trace %d" % (workload, seed, trace)
        try:
            code, lines = bench(workload, seed, trace)
            assert code == 0, "exit code %d" % code
            check_result(lines, declared[trace], EXERCISED[workload], trace)
            extra = " (%d spans nest)" % check_spans(lines) if trace else ""
            print("ok   %s%s" % (label, extra))
        except (AssertionError, ValueError, StopIteration, OSError,
                subprocess.TimeoutExpired) as exc:
            failures += 1
            print("FAIL %s: %s" % (label, exc))
    try:
        check_without_program()
        print("ok   fails without the program")
    except AssertionError as exc:
        failures += 1
        print("FAIL without the program: %s" % exc)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
