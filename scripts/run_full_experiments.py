"""Run every reproduction experiment with paper-faithful settings.

Writes the rendered artifacts to ``results/``: Table I on all ten ISCAS85
circuits, Fig. 6 on c7552 and Fig. 7 with 16x16 multipliers, each
validated with 10 000 Monte Carlo samples, plus the two ablations.
``perfbench/run.py`` measures the same flows; this script prints the
paper's tables.  Expect a few minutes of runtime::

    PYTHONPATH=src python scripts/run_full_experiments.py
"""

from __future__ import annotations

import argparse
import pathlib
import time

from repro.experiments import (
    run_figure6,
    run_figure7,
    run_table1,
    run_threshold_sweep,
    run_correlation_sweep,
)
from repro.experiments.config import DEFAULT_CONFIG
from repro.experiments.table1 import TABLE1_CIRCUITS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="results", help="output directory")
    parser.add_argument("--samples", type=int, default=10000, help="Monte Carlo samples")
    parser.add_argument("--bits", type=int, default=16, help="multiplier width for Fig. 7")
    parser.add_argument(
        "--circuits", nargs="*", default=list(TABLE1_CIRCUITS), help="Table I circuits"
    )
    args = parser.parse_args()

    output = pathlib.Path(args.output)
    output.mkdir(parents=True, exist_ok=True)
    config = DEFAULT_CONFIG.with_overrides(monte_carlo_samples=args.samples)

    start = time.perf_counter()
    print("== Table I ==", flush=True)
    table1 = run_table1(circuits=args.circuits, config=config)
    print(table1.render(), flush=True)
    (output / "table1.txt").write_text(table1.render() + "\n")

    print("== Figure 6 ==", flush=True)
    figure6 = run_figure6("c7552", config=config)
    print(figure6.render(), flush=True)
    (output / "figure6.txt").write_text(figure6.render() + "\n")

    print("== Figure 7 ==", flush=True)
    figure7 = run_figure7(bits=args.bits, config=config)
    print(figure7.render(), flush=True)
    (output / "figure7.txt").write_text(figure7.render() + "\n")

    print("== Ablation: criticality threshold ==", flush=True)
    threshold = run_threshold_sweep("c880", config=config)
    print(threshold.render(), flush=True)
    (output / "ablation_threshold.txt").write_text(threshold.render() + "\n")

    print("== Ablation: spatial correlation ==", flush=True)
    correlation = run_correlation_sweep(bits=8, config=config)
    print(correlation.render(), flush=True)
    (output / "ablation_correlation.txt").write_text(correlation.render() + "\n")

    print("total runtime: %.1f s" % (time.perf_counter() - start), flush=True)


if __name__ == "__main__":
    main()
