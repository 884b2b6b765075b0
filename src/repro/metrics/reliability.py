"""Reliability aggregation over broadcast summaries.

Implements the paper's measurements on top of
:class:`~repro.gossip.tracker.BroadcastSummary` sequences:

* average reliability of a message batch (Figure 2);
* the per-message reliability series (Figures 1c and 3);
* atomic-delivery fraction ("a reliability of 100% means the message
  resulted in an atomic broadcast", Section 2.5);
* healing time — cycles until reliability returns to its pre-failure level
  (Figure 4).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..gossip.tracker import BroadcastSummary
from .stats import mean


def reliability_series(summaries: Sequence[BroadcastSummary]) -> list[float]:
    """Per-message reliability, in send order."""
    ordered = sorted(summaries, key=lambda summary: summary.sent_at)
    return [summary.reliability for summary in ordered]


def average_reliability(summaries: Sequence[BroadcastSummary]) -> float:
    """Mean reliability of a message batch (one Figure 2 cell)."""
    return mean([summary.reliability for summary in summaries])


def atomic_fraction(series: Sequence[float]) -> float:
    """Fraction of messages delivered to *every* correct node, over a
    per-message reliability series."""
    if not series:
        return 0.0
    return sum(1 for reliability in series if reliability >= 1.0) / len(series)


def max_hops(summaries: Sequence[BroadcastSummary]) -> float:
    """Mean over messages of the per-message maximum hop count (Table 1's
    "maximum hops to delivery" is an average over runs, hence the non-
    integer values the paper reports)."""
    return mean([float(summary.max_hops) for summary in summaries])


def healing_cycles(
    baseline: float,
    per_cycle_reliability: Sequence[float],
    *,
    tolerance: float = 0.0,
) -> Optional[int]:
    """Cycles needed to regain the pre-failure reliability (Figure 4).

    Returns the 1-based index of the first cycle whose average reliability
    is at least ``baseline - tolerance``, or ``None`` if it never recovers
    within the observed window.
    """
    target = baseline - tolerance
    for index, value in enumerate(per_cycle_reliability):
        if value >= target:
            return index + 1
    return None
