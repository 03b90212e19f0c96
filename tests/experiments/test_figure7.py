"""Tests of the Fig. 7 hierarchical-design driver."""

import os

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.figure7 import (
    build_multiplier_design,
    build_multiplier_module,
    run_figure7,
)


@pytest.fixture(scope="module")
def figure7_result():
    # 8000 samples keep the analysis-vs-Monte-Carlo speedup assertion a
    # comfortable margin now that the levelized Monte Carlo engine cut the
    # MC wall clock ~10x (2000 samples left the ratio only ~2x above the
    # 5x gate); the run still finishes in well under a second.
    config = ExperimentConfig(monte_carlo_samples=8000)
    return run_figure7(bits=4, config=config)


class TestDesignConstruction:
    def test_four_instances_cross_connected(self):
        config = ExperimentConfig()
        module = build_multiplier_module(bits=4, config=config)
        design = build_multiplier_design(module)
        assert len(design.instances) == 4
        assert len(design.primary_inputs) == 2 * len(module.model.inputs)
        assert len(design.primary_outputs) == 2 * len(module.model.outputs)
        # All first-column outputs drive second-column inputs.
        cross = [
            connection
            for connection in design.connections
            if connection.source.startswith(("m0_0/", "m1_0/"))
            and connection.sink.startswith(("m0_1/", "m1_1/"))
        ]
        assert len(cross) == 2 * len(module.model.outputs)
        design.validate()

    def test_modules_are_abutted(self):
        config = ExperimentConfig()
        module = build_multiplier_module(bits=4, config=config)
        design = build_multiplier_design(module)
        die = module.model.die
        origins = {
            (instance.origin_x, instance.origin_y) for instance in design.instances
        }
        assert origins == {
            (0.0, 0.0),
            (0.0, die.height),
            (die.width, 0.0),
            (die.width, die.height),
        }


class TestFigure7Result:
    def test_curves_are_cdfs(self, figure7_result):
        assert set(figure7_result.curves) == {"Monte Carlo", "proposed", "global only"}
        for curve in figure7_result.curves.values():
            assert curve.shape == figure7_result.grid.shape
            assert np.all(np.diff(curve) >= -1e-9)
            assert curve[0] < 0.1 and curve[-1] > 0.9

    def test_proposed_tracks_monte_carlo(self, figure7_result):
        assert figure7_result.proposed_mean_error < 0.08
        assert figure7_result.proposed_std_error < 0.25
        assert figure7_result.proposed_cdf_gap < 0.15

    def test_local_correlation_matters(self, figure7_result):
        """The global-only baseline underestimates the delay spread and is a
        worse fit to the Monte Carlo CDF — the paper's central message."""
        assert figure7_result.global_only.std < figure7_result.proposed.std
        assert figure7_result.global_only_cdf_gap > figure7_result.proposed_cdf_gap

    def test_hierarchical_analysis_is_faster_than_monte_carlo(self, figure7_result):
        # ~130x on an idle machine.  REPRO_FIG7_SPEEDUP_MIN relaxes this
        # wall-clock assertion on loaded shared runners (the CI tier-1 job
        # sets it to 2.0) without weakening the local 5x check.
        threshold = float(os.environ.get("REPRO_FIG7_SPEEDUP_MIN", "5.0"))
        assert figure7_result.speedup > threshold

    def test_render(self, figure7_result):
        text = figure7_result.render()
        assert "Fig. 7" in text
        assert "speed-up" in text
        assert "Monte Carlo" in text and "proposed" in text and "global only" in text
