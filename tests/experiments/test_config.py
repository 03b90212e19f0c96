"""Tests of the shared experiment configuration."""

import pytest

from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig


class TestExperimentConfig:
    def test_defaults_match_paper(self):
        config = DEFAULT_CONFIG
        assert config.criticality_threshold == 0.05
        assert config.max_cells_per_grid == 100
        assert config.neighbor_correlation == 0.92
        assert config.floor_correlation == 0.42
        assert config.correlation_cutoff == 15.0
        assert config.monte_carlo_samples == 10000

    def test_correlation_profile(self):
        profile = DEFAULT_CONFIG.correlation()
        assert profile.total_correlation(1.0) == pytest.approx(0.92)
        assert profile.total_correlation(50.0) == pytest.approx(0.42)

    def test_parameters_and_sigma(self):
        parameters = DEFAULT_CONFIG.parameters()
        assert parameters["Leff"].sigma_fraction == pytest.approx(0.157)
        assert DEFAULT_CONFIG.sigma_fraction() == pytest.approx(
            parameters.combined_sigma_fraction()
        )

    def test_with_overrides(self):
        config = DEFAULT_CONFIG.with_overrides(criticality_threshold=0.1, seed=1)
        assert config.criticality_threshold == 0.1
        assert config.seed == 1
        assert DEFAULT_CONFIG.criticality_threshold == 0.05

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_CONFIG.seed = 1  # type: ignore[misc]
