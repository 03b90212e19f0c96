"""Parametric timing-yield analysis.

The paper's introduction motivates SSTA with exactly this output: "the
circuit delay in SSTA is a distribution providing delay-yield information to
designers".  These helpers turn a circuit-delay distribution — either the
canonical form produced by the analytical engines or raw Monte Carlo
samples — into yield numbers: the fraction of manufactured dies meeting a
clock period, the period required for a target yield, and full yield curves
for sign-off plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy.stats import norm

from repro.analysis.distributions import EmpiricalDistribution
from repro.core.canonical import CanonicalForm

__all__ = [
    "YieldCurve",
    "monte_carlo_yield_curve",
    "timing_yield",
    "required_period_for_yield",
    "yield_curve",
]

DelayDistribution = Union[CanonicalForm, EmpiricalDistribution, np.ndarray]


def _as_distribution(delay: DelayDistribution) -> Union[CanonicalForm, EmpiricalDistribution]:
    if isinstance(delay, (CanonicalForm, EmpiricalDistribution)):
        return delay
    return EmpiricalDistribution(np.asarray(delay, dtype=float))


def timing_yield(delay: DelayDistribution, clock_period: float) -> float:
    """Fraction of dies whose delay does not exceed ``clock_period``.

    ``delay`` may be a canonical form (Gaussian yield), an
    :class:`EmpiricalDistribution` or a raw sample array (empirical yield).
    """
    distribution = _as_distribution(delay)
    if isinstance(distribution, CanonicalForm):
        return float(distribution.cdf(clock_period))
    return float(distribution.cdf(clock_period))


def required_period_for_yield(delay: DelayDistribution, target_yield: float) -> float:
    """Smallest clock period achieving ``target_yield``.

    ``target_yield`` must lie in (0, 1); the classic sign-off points are
    0.9987 (+3 sigma) and 0.84 (+1 sigma).
    """
    if not 0.0 < target_yield < 1.0:
        raise ValueError("target_yield must lie strictly between 0 and 1")
    distribution = _as_distribution(delay)
    if isinstance(distribution, CanonicalForm):
        return float(
            norm.ppf(target_yield, loc=distribution.mean, scale=max(distribution.std, 1e-300))
        )
    return float(distribution.quantile(target_yield))


@dataclass(frozen=True)
class YieldCurve:
    """Yield as a function of the clock period."""

    periods: np.ndarray
    yields: np.ndarray

    def at(self, clock_period: float) -> float:
        """Interpolated yield at an arbitrary clock period."""
        return float(np.interp(clock_period, self.periods, self.yields))

    def period_for(self, target_yield: float) -> float:
        """Interpolated clock period for a target yield."""
        return float(np.interp(target_yield, self.yields, self.periods))

    def __len__(self) -> int:
        return int(self.periods.shape[0])


def yield_curve(
    delay: DelayDistribution,
    periods: Union[Sequence[float], np.ndarray, None] = None,
    num_points: int = 101,
    sigma_span: float = 4.0,
) -> YieldCurve:
    """Yield curve of a delay distribution over a range of clock periods.

    When ``periods`` is omitted the range spans ``mean +/- sigma_span * std``
    of the distribution (clipped to the sample range for empirical inputs).
    """
    distribution = _as_distribution(delay)
    if periods is None:
        if isinstance(distribution, CanonicalForm):
            low = distribution.mean - sigma_span * distribution.std
            high = distribution.mean + sigma_span * distribution.std
        else:
            low, high = distribution.min, distribution.max
        periods = np.linspace(low, high, num_points)
    periods = np.asarray(periods, dtype=float)
    if periods.ndim != 1 or periods.shape[0] < 2:
        raise ValueError("periods must be a one-dimensional grid of at least two points")
    if np.any(np.diff(periods) < 0.0):
        raise ValueError("periods must be non-decreasing")

    if isinstance(distribution, CanonicalForm):
        yields = np.asarray(distribution.cdf(periods), dtype=float)
    else:
        yields = distribution.cdf(periods)
    return YieldCurve(periods=periods, yields=yields)


def monte_carlo_yield_curve(
    source,
    num_samples: int = 10000,
    seed: int = 0,
    *,
    periods: Union[Sequence[float], np.ndarray, None] = None,
    num_points: int = 101,
    sigma_span: float = 4.0,
) -> YieldCurve:
    """Empirical yield curve straight from the Monte Carlo engine.

    ``source`` may be a :class:`~repro.timing.graph.TimingGraph` (simulated
    one-shot with the levelized kernel; ``num_samples``/``seed`` forward
    to :func:`~repro.montecarlo.simulate_graph_delay`), an incrementally
    maintained :class:`~repro.montecarlo.MonteCarloSession` (revalidated —
    an unchanged session reuses its cached samples, a post-ECO one
    resamples only the touched rows), or an existing
    :class:`~repro.montecarlo.MonteCarloResult`.  The remaining keywords
    forward to :func:`yield_curve`.
    """
    # Imported here: the montecarlo package sits above the analysis layer.
    from repro.montecarlo.flat import MonteCarloResult, MonteCarloSession
    from repro.montecarlo.flat import simulate_graph_delay

    if isinstance(source, MonteCarloSession):
        result = source.revalidate()
    elif isinstance(source, MonteCarloResult):
        result = source
    else:
        result = simulate_graph_delay(source, num_samples, seed)
    return yield_curve(
        result.samples,
        periods=periods,
        num_points=num_points,
        sigma_span=sigma_span,
    )
