"""Fanout sweep: Figures 1a and 1b of the paper.

Section 3.1 motivates HyParView by showing how much fanout plain gossip
needs for high reliability: Cyclon requires 5–6 and Scamp 6 to cross 99%
on 10 000 nodes, while HyParView floods a fanout-4-sized active view and
reaches 100% deterministically.

Every fanout point thaws the same stabilised base — the membership
structure does not depend on the gossip fanout, so every fanout sees the
identical overlay, exactly like re-running the paper's dissemination over
one stabilised PeerSim network.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gossip.eager import EagerGossip
from ..metrics.reliability import atomic_fraction, average_reliability
from .failures import stabilized_scenario
from .params import ExperimentParams
from .scenario import Scenario


@dataclass(frozen=True, slots=True)
class FanoutPoint:
    """Reliability of one (protocol, fanout) cell (no failures)."""

    protocol: str
    fanout: int
    messages: int
    average_reliability: float
    atomic_fraction: float
    min_reliability: float


def measure_fanout_point(scenario: Scenario, fanout: int, messages: int) -> FanoutPoint:
    """One (protocol, fanout) point on a scenario the caller hands over.

    The scenario is consumed (its gossip fanout is rewired); see
    :func:`~repro.experiments.failures.measure_failure` for the ownership
    convention.
    """
    for node_id in scenario.node_ids:
        layer = scenario.broadcast_layer(node_id)
        assert isinstance(layer, EagerGossip)
        layer.fanout = fanout
    summaries = scenario.send_broadcasts(messages)
    return FanoutPoint(
        protocol=scenario.protocol,
        fanout=fanout,
        messages=messages,
        average_reliability=average_reliability(summaries),
        atomic_fraction=atomic_fraction(summaries),
        min_reliability=min(summary.reliability for summary in summaries),
    )


def hyparview_reference_point(params: ExperimentParams, messages: int = 50) -> FanoutPoint:
    """HyParView's single point for the Figure 1 comparison: flooding a
    ``fanout + 1`` active view in a stable overlay delivers atomically."""
    scenario = stabilized_scenario("hyparview", params)
    summaries = scenario.send_broadcasts(messages)
    return FanoutPoint(
        protocol="hyparview",
        fanout=params.hyparview.fanout,
        messages=messages,
        average_reliability=average_reliability(summaries),
        atomic_fraction=atomic_fraction(summaries),
        min_reliability=min(summary.reliability for summary in summaries),
    )


#: Fanout range plotted in Figure 1.
FIGURE1_FANOUTS = (1, 2, 3, 4, 5, 6, 7, 8)
