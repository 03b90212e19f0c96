"""Unit tests of the Gaussian helpers and Clark's moment formulas."""

import math

import numpy as np
import pytest
from scipy.stats import norm

from repro.core.gaussian import (
    clark_moments,
    clark_theta,
    normal_cdf,
    normal_cdf_into,
    normal_pdf,
    normal_pdf_into,
)


class TestStandardNormal:
    def test_pdf_matches_scipy(self):
        for x in (-3.0, -0.5, 0.0, 1.2, 4.0):
            assert normal_pdf(x) == pytest.approx(norm.pdf(x), rel=1e-12)

    def test_cdf_matches_scipy(self):
        for x in (-5.0, -1.0, 0.0, 0.7, 3.3):
            assert normal_cdf(x) == pytest.approx(norm.cdf(x), rel=1e-12)

    def test_cdf_limits(self):
        assert normal_cdf(-40.0) == pytest.approx(0.0, abs=1e-15)
        assert normal_cdf(40.0) == pytest.approx(1.0)


class TestIntoKernels:
    """The buffer-writing variants the batched Clark kernel calls."""

    X = np.linspace(-8.0, 8.0, 1001)

    def test_pdf_into_is_bitwise_the_array_path(self):
        out = np.empty_like(self.X)
        assert normal_pdf_into(self.X, out) is out
        np.testing.assert_array_equal(out, normal_pdf(self.X))

    def test_cdf_into_is_bitwise_the_array_path(self):
        out = np.empty_like(self.X)
        assert normal_cdf_into(self.X, out) is out
        np.testing.assert_array_equal(out, normal_cdf(self.X))

    def test_cdf_into_may_overwrite_its_input(self):
        x = self.X.copy()
        normal_cdf_into(x, x)
        np.testing.assert_array_equal(x, normal_cdf(self.X))

    # The object engine evaluates the scalar paths (math.exp, math.erfc),
    # the batched engines these array kernels; the engines' 1e-9 parity
    # starts here.
    def test_pdf_into_matches_the_scalar_path(self):
        out = normal_pdf_into(self.X, np.empty_like(self.X))
        scalar = [normal_pdf(float(x)) for x in self.X]
        np.testing.assert_allclose(out, scalar, rtol=1e-9, atol=1e-9)

    def test_cdf_into_matches_the_scalar_path(self):
        out = normal_cdf_into(self.X, np.empty_like(self.X))
        scalar = [normal_cdf(float(x)) for x in self.X]
        np.testing.assert_allclose(out, scalar, rtol=1e-9, atol=1e-9)


class TestClarkTheta:
    def test_independent_variables(self):
        assert clark_theta(9.0, 16.0, 0.0) == pytest.approx(5.0)

    def test_fully_correlated_clamps_to_zero(self):
        # var_a == var_b == cov (perfect correlation) plus round-off noise.
        assert clark_theta(4.0, 4.0, 4.0 + 1e-15) == 0.0


class TestClarkMoments:
    def test_degenerate_equal_operands(self):
        tp, mean, var = clark_moments(5.0, 4.0, 5.0, 4.0, 4.0)
        assert tp == 1.0
        assert mean == 5.0
        assert var == 4.0

    def test_degenerate_picks_larger_mean(self):
        tp, mean, var = clark_moments(3.0, 1.0, 7.0, 1.0, 1.0)
        assert tp == 0.0
        assert mean == 7.0
        assert var == 1.0

    def test_widely_separated_operands_return_dominant(self):
        tp, mean, var = clark_moments(100.0, 1.0, 0.0, 1.0, 0.0)
        assert tp == pytest.approx(1.0)
        assert mean == pytest.approx(100.0, rel=1e-6)
        assert var == pytest.approx(1.0, rel=1e-3)

    def test_symmetric_operands(self):
        # max of two iid N(0, 1): mean = 1/sqrt(pi), var = 1 - 1/pi.
        tp, mean, var = clark_moments(0.0, 1.0, 0.0, 1.0, 0.0)
        assert tp == pytest.approx(0.5)
        assert mean == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-9)
        assert var == pytest.approx(1.0 - 1.0 / math.pi, rel=1e-9)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(5)
        mean_a, var_a = 10.0, 4.0
        mean_b, var_b = 11.0, 9.0
        cov = 2.5
        covariance = np.array([[var_a, cov], [cov, var_b]])
        samples = rng.multivariate_normal([mean_a, mean_b], covariance, size=300000)
        empirical = samples.max(axis=1)
        tp, mean, var = clark_moments(mean_a, var_a, mean_b, var_b, cov)
        assert tp == pytest.approx(np.mean(samples[:, 0] >= samples[:, 1]), abs=0.01)
        assert mean == pytest.approx(float(np.mean(empirical)), rel=0.01)
        assert var == pytest.approx(float(np.var(empirical)), rel=0.03)

    def test_variance_never_negative(self):
        tp, mean, var = clark_moments(1.0, 1e-18, 1.0, 1e-18, 0.0)
        assert var >= 0.0
