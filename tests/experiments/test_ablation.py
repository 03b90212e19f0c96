"""Tests of the ablation sweeps."""

import pytest

from repro.experiments.ablation import run_correlation_sweep, run_threshold_sweep
from repro.experiments.config import ExperimentConfig


@pytest.fixture(scope="module")
def threshold_sweep():
    return run_threshold_sweep(
        "c432", thresholds=(0.0, 0.05, 0.3), config=ExperimentConfig()
    )


class TestThresholdSweep:
    def test_model_size_decreases_with_threshold(self, threshold_sweep):
        edges = [point.model_edges for point in threshold_sweep.points]
        assert edges[0] >= edges[1] >= edges[2]

    def test_error_grows_with_threshold(self, threshold_sweep):
        first, _middle, last = threshold_sweep.points
        assert last.mean_error >= first.mean_error - 1e-9

    def test_zero_threshold_is_accurate(self, threshold_sweep):
        assert threshold_sweep.points[0].mean_error < 0.02

    def test_render(self, threshold_sweep):
        text = threshold_sweep.render()
        assert "delta" in text and "c432" in text


class TestCorrelationSweep:
    def test_sigma_grows_with_correlation(self):
        config = ExperimentConfig(monte_carlo_samples=200)
        sweep = run_correlation_sweep(
            bits=4, neighbor_correlations=(0.5, 0.92), config=config
        )
        assert len(sweep.points) == 2
        assert sweep.points[0].proposed_std <= sweep.points[1].proposed_std * 1.05

    def test_global_only_underestimates_sigma(self):
        config = ExperimentConfig(monte_carlo_samples=200)
        sweep = run_correlation_sweep(
            bits=4, neighbor_correlations=(0.92,), config=config
        )
        point = sweep.points[0]
        assert point.global_only_std < point.proposed_std
        assert point.std_gap > 0.0
        assert "sigma" in sweep.render()
