"""A script read from standard input falls back to the serial engine quietly.

Spawned workers import the parent's ``__main__`` from its ``__file__``
unless it has a module spec.  A ``python -`` script names ``<stdin>``,
which is no file, so every worker would die importing it; the executor
resolves the serial engine up front instead and says why.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.parallel.pool import ShardedExecutor
from repro.parallel.shm import shared_memory_available

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="no working shared memory on this host"
)

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)

STDIN_SCRIPT = textwrap.dedent(
    """
    import json
    import time

    import numpy as np

    from repro.liberty.library import standard_library
    from repro.montecarlo.flat import simulate_graph_delay
    from repro.netlist.iscas85 import iscas85_surrogate
    from repro.parallel.pool import shared_executor
    from repro.placement.placer import place_netlist
    from repro.timing.builder import build_timing_graph, default_variation_for

    library = standard_library()
    netlist = iscas85_surrogate("c432")
    placement = place_netlist(netlist, library)
    graph = build_timing_graph(
        netlist, library, placement, default_variation_for(netlist, placement)
    )
    start = time.perf_counter()
    sharded = simulate_graph_delay(graph, 2048, seed=7, workers=2)
    elapsed = time.perf_counter() - start
    serial = simulate_graph_delay(graph, 2048, seed=7, workers=1)
    executor = shared_executor(2)
    print(json.dumps({
        "elapsed": elapsed,
        "same": bool(np.array_equal(sharded.samples, serial.samples)),
        "engine": executor.engine,
        "reason": executor.fallback_reason,
    }))
    """
)


def test_stdin_script_runs_serial_without_worker_tracebacks():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    completed = subprocess.run(
        [sys.executable, "-"],
        input=STDIN_SCRIPT,
        capture_output=True,
        text=True,
        timeout=240,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr
    assert "Traceback" not in completed.stderr, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["engine"] == "serial"
    assert "__main__" in result["reason"] and "<stdin>" in result["reason"]
    assert result["same"]
    assert result["elapsed"] < 2.0


def test_importable_main_keeps_the_process_engine():
    """Under pytest ``__main__`` is importable (a module spec or a file)."""
    executor = ShardedExecutor(workers=2)
    try:
        assert executor.engine == "process"
        assert executor.fallback_reason is None
    finally:
        executor.close()


def test_missing_main_file_is_named(monkeypatch, tmp_path):
    """A ``__main__`` without a spec whose file is gone resolves serial."""
    main = sys.modules["__main__"]
    missing = str(tmp_path / "gone.py")
    monkeypatch.setattr(main, "__spec__", None, raising=False)
    monkeypatch.setattr(main, "__file__", missing, raising=False)
    executor = ShardedExecutor(workers=2)
    try:
        assert executor.engine == "serial"
        assert "__main__" in executor.fallback_reason
        assert missing in executor.fallback_reason
    finally:
        executor.close()
