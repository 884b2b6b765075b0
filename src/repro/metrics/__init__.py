"""Overlay analytics and reliability measurement."""

from .graph import OverlaySnapshot, PathStats
from .reliability import (
    atomic_fraction,
    average_reliability,
    healing_cycles,
    max_hops,
    reliability_series,
)
from .stats import SummaryStats, mean, percentile, stddev, summarize

__all__ = [
    "OverlaySnapshot",
    "PathStats",
    "SummaryStats",
    "atomic_fraction",
    "average_reliability",
    "healing_cycles",
    "max_hops",
    "mean",
    "percentile",
    "reliability_series",
    "stddev",
    "summarize",
]
