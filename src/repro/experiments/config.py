"""Shared configuration of the reproduction experiments.

The defaults mirror Section VI of the paper: parameter sigmas from Nassif
(15.7 % / 5.3 % / 4.4 %), 15 % load variation, at most 100 cells per grid,
neighbouring-grid correlation 0.92 decaying to the 0.42 global floor at a
grid distance of 15, criticality threshold 0.05 and 10 000 Monte Carlo
iterations.  Sample counts are configurable because this NumPy implementation
is slower than the paper's C++ one; the reproduced quantities are ratios and
relative errors, which are insensitive to the sample count beyond a few
thousand samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.variation.parameters import ParameterSet, nassif_parameters
from repro.variation.spatial import SpatialCorrelation

__all__ = ["ExperimentConfig", "DEFAULT_CONFIG", "FAST_CONFIG"]


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of the reproduction experiments."""

    #: Criticality threshold delta of the model extraction (paper: 0.05).
    criticality_threshold: float = 0.05
    #: Maximum number of cells per grid when partitioning a die (paper: 100).
    max_cells_per_grid: int = 100
    #: Correlation of neighbouring grids (paper: 0.92).
    neighbor_correlation: float = 0.92
    #: Correlation floor attributed to global variation (paper: 0.42).
    floor_correlation: float = 0.42
    #: Grid distance at which the correlation reaches the floor (paper: 15).
    correlation_cutoff: float = 15.0
    #: Fraction of the delay variance carried by purely random variation.
    random_variance_share: float = 0.2
    #: Monte Carlo iterations (paper: 10 000).
    monte_carlo_samples: int = 10000
    #: Monte Carlo sample chunk size; ``None`` auto-sizes each run's chunks
    #: from the graph so the working set stays within the chunk budget (see
    #: :func:`repro.montecarlo.auto_chunk_size`).  Chunking is purely a
    #: memory/runtime trade-off: sampling is counter-based per block, so
    #: the simulated values are bit-identical for every chunk size (and
    #: worker count).
    monte_carlo_chunk: Optional[int] = None
    #: Worker processes of the sharded analyses (Monte Carlo sample
    #: ranges, corner sweeps, per-circuit experiment rows).  ``None``
    #: defers to the ``REPRO_WORKERS`` environment variable (default: 1,
    #: i.e. serial).  All sharded analyses are bit-identical to their
    #: serial counterparts, so this is a pure throughput knob.
    workers: Optional[int] = None
    #: Seed of every random construction and simulation.
    seed: int = 2009

    def correlation(self) -> SpatialCorrelation:
        """The spatial correlation profile described in Section VI."""
        return SpatialCorrelation(
            self.neighbor_correlation,
            self.floor_correlation,
            self.correlation_cutoff,
        )

    def parameters(self) -> ParameterSet:
        """The process-parameter budget described in Section VI."""
        return nassif_parameters()

    def sigma_fraction(self) -> float:
        """Combined delay sigma fraction derived from the parameter budget."""
        return self.parameters().combined_sigma_fraction()

    def with_overrides(self, **kwargs: object) -> "ExperimentConfig":
        """A copy of the configuration with some fields replaced."""
        return replace(self, **kwargs)


#: Paper-faithful defaults.
DEFAULT_CONFIG = ExperimentConfig()

#: A reduced-cost configuration used by the test suite and the default
#: benchmark runs (fewer Monte Carlo samples; everything else identical).
FAST_CONFIG = ExperimentConfig(monte_carlo_samples=2000, monte_carlo_chunk=1000)
