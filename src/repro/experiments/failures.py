"""Failure experiments: Figures 1c, 2 and 3 of the paper.

Procedure (Section 5.2): build the overlay by sequential joins, run 50
stabilisation cycles, crash a random fraction of nodes, then send a batch
of messages from random correct nodes *before any further membership
cycle* — reactive steps (failure detection, passive-view promotion) still
run, concurrently with the paced message stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..metrics.reliability import atomic_fraction, average_reliability, reliability_series
from .params import ExperimentParams
from .scenario import Scenario


@dataclass(frozen=True, slots=True)
class FailureExperimentResult:
    """Outcome of one (protocol, failure-fraction) cell."""

    protocol: str
    n: int
    failure_fraction: float
    messages: int
    #: per-message reliability in send order (Figures 1c / 3)
    series: tuple[float, ...]
    #: batch average (Figure 2)
    average: float
    #: fraction of messages that reached every correct node
    atomic: float
    #: survivors at measurement time
    correct_nodes: int

    def tail_average(self, k: int = 10) -> float:
        """Average of the last ``k`` messages — the healed steady state."""
        tail = self.series[-k:]
        return sum(tail) / len(tail) if tail else 0.0


def measure_failure(
    scenario: Scenario,
    failure_fraction: float,
    messages: int,
) -> FailureExperimentResult:
    """Crash, broadcast, measure — on a scenario the caller hands over.

    The scenario is consumed (mutated): callers keep a reusable base by
    passing a :meth:`~repro.experiments.scenario.Scenario.clone` or a
    snapshot-cache checkout instead of the base itself.
    """
    scenario.fail_fraction(failure_fraction)
    summaries = scenario.send_paced_broadcasts(messages)
    return FailureExperimentResult(
        protocol=scenario.protocol,
        n=scenario.params.n,
        failure_fraction=failure_fraction,
        messages=messages,
        series=tuple(reliability_series(summaries)),
        average=average_reliability(summaries),
        atomic=atomic_fraction(summaries),
        correct_nodes=len(scenario.alive_ids()),
    )


def stabilized_scenario(protocol: str, params: ExperimentParams) -> Scenario:
    """Build + join + stabilise (the reusable expensive prefix)."""
    scenario = Scenario(protocol, params)
    scenario.build_overlay()
    scenario.stabilize()
    return scenario


#: The failure levels of Figure 2.
FIGURE2_FRACTIONS = (0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 0.95)

#: The panels of Figure 3.
FIGURE3_FRACTIONS = (0.20, 0.40, 0.60, 0.70, 0.80, 0.95)

#: The protocols compared throughout Section 5.
PAPER_PROTOCOLS = ("hyparview", "cyclon-acked", "cyclon", "scamp")
