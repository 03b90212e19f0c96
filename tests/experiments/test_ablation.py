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

    def test_paper_threshold_keeps_mean_error_small(self, threshold_sweep):
        """The paper's delta = 0.05 keeps the mean input/output delay
        error under 3 %, which is what justifies that choice."""
        paper_point = threshold_sweep.points[1]
        assert paper_point.threshold == 0.05
        assert paper_point.mean_error < 0.03

    def test_render(self, threshold_sweep):
        text = threshold_sweep.render()
        assert "delta" in text and "c432" in text


class TestCorrelationSweep:
    def test_sigma_grows_with_correlation(self):
        config = ExperimentConfig(monte_carlo_samples=200)
        sweep = run_correlation_sweep(
            bits=4, neighbor_correlations=(0.5, 0.7, 0.92), config=config
        )
        assert len(sweep.points) == 3
        assert sweep.points[0].proposed_std <= sweep.points[-1].proposed_std * 1.05
        # The global-only baseline never overestimates the spread.
        for point in sweep.points:
            assert point.global_only_std <= point.proposed_std + 1e-9

    def test_global_only_underestimates_sigma(self):
        config = ExperimentConfig(monte_carlo_samples=200)
        sweep = run_correlation_sweep(
            bits=4, neighbor_correlations=(0.92,), config=config
        )
        point = sweep.points[0]
        assert point.global_only_std < point.proposed_std
        assert point.std_gap > 0.0
        assert "sigma" in sweep.render()
