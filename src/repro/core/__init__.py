"""Canonical delay forms and statistical operators for SSTA.

This subpackage implements Section II of the paper: the general linear form

    d = a0 + ag * xg + sum_i(ai * xi) + ar * xr

(eq. 3) together with the statistical ``sum`` and ``max`` operators of
Visweswariah et al. / Clark that the rest of the system builds upon, and
:mod:`repro.core.chunk_threads`, the thread loop of the chunked kernels.
"""

from repro.core.batch import CanonicalBatch
from repro.core.canonical import CanonicalForm
from repro.core.gaussian import normal_cdf, normal_pdf, clark_moments
from repro.core.ops import (
    statistical_sum,
    statistical_max,
    statistical_max_many,
    tightness_probability,
)
from repro.core.correlation import covariance, correlation

__all__ = [
    "CanonicalBatch",
    "CanonicalForm",
    "normal_cdf",
    "normal_pdf",
    "clark_moments",
    "statistical_sum",
    "statistical_max",
    "statistical_max_many",
    "tightness_probability",
    "covariance",
    "correlation",
]
