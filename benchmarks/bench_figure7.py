"""Fig. 7 — hierarchical analysis of the four-multiplier design.

Three benchmarks cover the three curves/claims of Section VI.B:

* ``test_figure7_hierarchical_analysis`` times the proposed design-level
  analysis (model instantiation, variable replacement, propagation);
* ``test_figure7_monte_carlo_reference`` times the flattened Monte Carlo
  reference it is compared against;
* ``test_figure7_accuracy_and_speedup`` runs the complete comparison and
  records the accuracy of the proposed method, the error of the global-only
  baseline and the speed-up (the paper reports three orders of magnitude
  for 16x16 multipliers with 10 000 Monte Carlo iterations — enable with
  ``REPRO_FULL=1``).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import figure7_bits
from repro.experiments.figure7 import (
    build_multiplier_design,
    build_multiplier_module,
    run_figure7,
)
from repro.hier.analysis import CorrelationMode, analyze_hierarchical_design
from repro.montecarlo.hierarchical import monte_carlo_hierarchical


@pytest.fixture(scope="module")
def module(bench_config):
    return build_multiplier_module(bits=figure7_bits(), config=bench_config)


@pytest.fixture(scope="module")
def design(module):
    return build_multiplier_design(module)


def test_figure7_module_characterization(benchmark, bench_config):
    result = benchmark.pedantic(
        build_multiplier_module,
        kwargs={"bits": figure7_bits(), "config": bench_config},
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(
        {
            "bits": figure7_bits(),
            "model_edges": result.model.stats.model_edges,
            "original_edges": result.model.stats.original_edges,
        }
    )


def test_figure7_hierarchical_analysis(benchmark, design):
    result = benchmark(analyze_hierarchical_design, design, CorrelationMode.REPLACEMENT)
    benchmark.extra_info.update(
        {"mean_ps": "%.1f" % result.mean, "sigma_ps": "%.1f" % result.std}
    )
    assert result.std > 0.0


def test_figure7_monte_carlo_reference(benchmark, design, bench_config):
    result = benchmark.pedantic(
        monte_carlo_hierarchical,
        kwargs={
            "design": design,
            "num_samples": bench_config.monte_carlo_samples,
            "seed": bench_config.seed,
        },
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(
        {
            "samples": bench_config.monte_carlo_samples,
            "mean_ps": "%.1f" % result.mean,
            "sigma_ps": "%.1f" % result.std,
        }
    )


def test_figure7_accuracy_and_speedup(benchmark, bench_config, module):
    result = benchmark.pedantic(
        run_figure7,
        kwargs={"bits": figure7_bits(), "config": bench_config, "module": module},
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(
        {
            "proposed_mean_err": "%.2f%%" % (100 * result.proposed_mean_error),
            "proposed_sigma_err": "%.2f%%" % (100 * result.proposed_std_error),
            "global_only_sigma_err": "%.2f%%" % (100 * result.global_only_std_error),
            "proposed_cdf_gap": "%.3f" % result.proposed_cdf_gap,
            "global_only_cdf_gap": "%.3f" % result.global_only_cdf_gap,
            "speedup": "%.0fx" % result.speedup,
        }
    )
    # Shape of Fig. 7: the proposed method tracks Monte Carlo, the
    # global-only baseline underestimates the spread, and the model-based
    # analysis is far faster than flattened Monte Carlo.
    assert result.proposed_mean_error < 0.08
    assert result.proposed_cdf_gap < result.global_only_cdf_gap
    assert result.global_only.std < result.proposed.std
    assert result.speedup > 5.0
