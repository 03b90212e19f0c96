"""Shared configuration of the benchmark harness.

Every benchmark regenerates one of the paper's artifacts (a Table I row,
Fig. 6, Fig. 7 or an ablation) and records the headline numbers in
``benchmark.extra_info`` so they appear in the pytest-benchmark output.

By default the harness uses reduced sample counts and the smaller circuits
so a full run stays within a few minutes.  Set the environment variable
``REPRO_FULL=1`` to run the complete paper configuration (all ten ISCAS85
circuits, c7552 for Fig. 6, the 16x16 multipliers and 10 000 Monte Carlo
samples for Fig. 7).
"""

from __future__ import annotations

import json
import os
from typing import Optional

import pytest

from repro.experiments.config import DEFAULT_CONFIG, FAST_CONFIG, ExperimentConfig
from repro.experiments.table1 import TABLE1_CIRCUITS, TABLE1_DEFAULT_SUBSET

#: Repository root, where the ``BENCH_*.json`` records live.
BENCH_RECORD_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def record_bench(
    filename: str, key: str, payload: dict, workers: Optional[int] = None
) -> None:
    """Merge one benchmark's headline numbers into a ``BENCH_*.json`` record.

    Every entry is stamped with the host's ``cpu_count`` (and the worker
    count, when the benchmark shards work) so recorded speedups can be
    judged against the parallelism that was actually available.
    """
    path = os.path.join(BENCH_RECORD_DIR, filename)
    payload = dict(payload)
    payload["cpu_count"] = os.cpu_count()
    if workers is not None:
        payload["workers"] = int(workers)
    record = {}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            record = {}
    record[key] = payload
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")


def full_run() -> bool:
    """Whether the paper-faithful (slow) configuration was requested."""
    return os.environ.get("REPRO_FULL", "0") not in ("", "0", "false", "no")


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """Experiment configuration used by the benchmarks."""
    if full_run():
        return DEFAULT_CONFIG
    return FAST_CONFIG


def table1_circuits() -> tuple:
    """Circuits benchmarked for Table I under the current configuration."""
    if full_run():
        return TABLE1_CIRCUITS
    return TABLE1_DEFAULT_SUBSET


def figure6_circuit() -> str:
    """Circuit used for the Fig. 6 histogram under the current configuration."""
    return "c7552" if full_run() else "c880"


def figure7_bits() -> int:
    """Multiplier width used for Fig. 7 under the current configuration."""
    return 16 if full_run() else 8
