"""Delivery-latency histograms for live (wall-clock) measurement.

The simulator reports dissemination in *hops* and simulated seconds; the
live runtime measures real publish→deliver latency.  A
:class:`LatencyHistogram` collects one sample per delivery and reports the
quantiles the phase rows of a live run (``repro chaos``) publish
(p50/p99, the industry-standard pair for latency SLOs).

Samples are kept exactly (a float each) — bench-scale runs collect
thousands of samples, not billions, so exact quantiles are cheaper than
the error analysis a sketch would need.
"""

from __future__ import annotations

import math
from typing import Optional


class LatencyHistogram:
    """Exact-sample latency aggregator with percentile queries."""

    __slots__ = ("_samples", "_sorted")

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._sorted = True

    def record(self, seconds: float) -> None:
        """Add one latency sample (seconds; negatives are clock skew,
        clamped to zero rather than poisoning the quantiles)."""
        self._samples.append(seconds if seconds > 0.0 else 0.0)
        self._sorted = False

    @property
    def count(self) -> int:
        return len(self._samples)

    def mean(self) -> Optional[float]:
        if not self._samples:
            return None
        return sum(self._samples) / len(self._samples)

    def percentile(self, p: float) -> Optional[float]:
        """The ``p``-th percentile (0 < p <= 100), nearest-rank method."""
        if not 0.0 < p <= 100.0:
            raise ValueError(f"percentile must be in (0, 100]: {p}")
        if not self._samples:
            return None
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        rank = max(1, math.ceil(p / 100.0 * len(self._samples)))
        return self._samples[rank - 1]

    def p50(self) -> Optional[float]:
        return self.percentile(50.0)

    def p99(self) -> Optional[float]:
        return self.percentile(99.0)

    def max(self) -> Optional[float]:
        return max(self._samples) if self._samples else None

    def to_dict(self) -> dict:
        """Summary row for reports, latencies in milliseconds."""

        def scaled(value: Optional[float]) -> Optional[float]:
            return None if value is None else value * 1000.0

        return {
            "samples": self.count,
            "mean_ms": scaled(self.mean()),
            "p50_ms": scaled(self.p50()),
            "p99_ms": scaled(self.p99()),
            "max_ms": scaled(self.max()),
        }


__all__ = ["LatencyHistogram"]
