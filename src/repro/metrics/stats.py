"""Small statistics helpers used by experiments and reports."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..common.errors import ConfigurationError


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence (experiments treat "no
    samples" as a zero row rather than an error)."""
    return sum(values) / len(values) if values else 0.0


def stddev(values: Sequence[float]) -> float:
    """Population standard deviation; 0.0 with fewer than two samples."""
    if len(values) < 2:
        return 0.0
    centre = mean(values)
    return math.sqrt(sum((value - centre) ** 2 for value in values) / len(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError(f"percentile must be in [0, 100]: {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    blend = ordered[low] * (1.0 - fraction) + ordered[high] * fraction
    # Rounding (underflow, for subnormals) can land the blend just outside
    # the two samples it interpolates: [5e-324, 5e-324] blends to 0.0.
    return min(max(blend, ordered[low]), ordered[high])


@dataclass(frozen=True, slots=True)
class SummaryStats:
    """Five-number-style summary of a sample."""

    count: int
    mean: float
    stddev: float
    minimum: float
    p50: float
    p95: float
    maximum: float

    def __str__(self) -> str:  # pragma: no cover - formatting helper
        return (
            f"n={self.count} mean={self.mean:.4f} sd={self.stddev:.4f} "
            f"min={self.minimum:.4f} p50={self.p50:.4f} p95={self.p95:.4f} max={self.maximum:.4f}"
        )


def summarize(values: Iterable[float]) -> SummaryStats:
    """Build a :class:`SummaryStats` from any iterable of numbers."""
    data = list(values)
    if not data:
        return SummaryStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return SummaryStats(
        count=len(data),
        mean=mean(data),
        stddev=stddev(data),
        minimum=min(data),
        p50=percentile(data, 50),
        p95=percentile(data, 95),
        maximum=max(data),
    )
