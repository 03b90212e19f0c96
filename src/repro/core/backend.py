"""The kernel tier every analysis runs on: always numpy.

Each fold, Monte Carlo and criticality kernel has exactly one
implementation, in numpy.  This module survives only because the host
fingerprint of ``perfbench/child.py`` records :func:`resolve_backend`;
it goes away with that field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["ResolvedBackend", "resolve_backend"]


@dataclass(frozen=True)
class ResolvedBackend:
    """The kernel tier that was asked for, the one that runs, and why they differ."""

    requested: str
    backend: str
    fallback_reason: Optional[str]


def resolve_backend() -> ResolvedBackend:
    """The fixed numpy tier."""
    return ResolvedBackend("numpy", "numpy", None)
