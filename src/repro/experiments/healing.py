"""Healing time: Figure 4 of the paper.

Section 5.3's procedure: stabilise, measure the protocol's own pre-failure
reliability baseline, induce failures, then run membership cycles; after
each cycle 10 random correct nodes broadcast and the cycle count at which
average reliability returns to the baseline is the healing time.

HyParView heals in 1–2 cycles for failure rates below 80% (the paper's
headline "recovers from 90% failures in as few as 4 membership rounds");
Cyclon's healing grows almost linearly with the failure percentage; Scamp
is excluded because its healing hinges on the (long) lease time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..metrics.reliability import average_reliability, healing_cycles
from .scenario import Scenario

#: Broadcasts behind the baseline and behind each cycle's reliability.
PROBES = 10


@dataclass(frozen=True, slots=True)
class HealingResult:
    """Outcome of one (protocol, failure fraction) healing run."""

    protocol: str
    n: int
    failure_fraction: float
    baseline_reliability: float
    #: average probe reliability after each membership cycle
    per_cycle: tuple[float, ...]
    #: 1-based cycle count to regain the baseline, None if not within budget
    cycles_to_heal: Optional[int]
    max_cycles: int


def measure_healing(
    scenario: Scenario,
    failure_fraction: float,
    *,
    max_cycles: int = 30,
    tolerance: float = 0.001,
) -> HealingResult:
    """The Figure 4 measurement on a scenario the caller hands over.

    The scenario is consumed (mutated); see
    :func:`~repro.experiments.failures.measure_failure` for the ownership
    convention.
    """
    baseline = average_reliability(scenario.send_broadcasts(PROBES))
    scenario.fail_fraction(failure_fraction)
    per_cycle: list[float] = []
    for _cycle in range(max_cycles):
        scenario.run_cycles(1)
        probes = scenario.send_broadcasts(PROBES)
        per_cycle.append(average_reliability(probes))
        if per_cycle[-1] >= baseline - tolerance:
            break
    return HealingResult(
        protocol=scenario.protocol,
        n=scenario.params.n,
        failure_fraction=failure_fraction,
        baseline_reliability=baseline,
        per_cycle=tuple(per_cycle),
        cycles_to_heal=healing_cycles(baseline, per_cycle, tolerance=tolerance),
        max_cycles=max_cycles,
    )


#: Failure levels plotted in Figure 4.
FIGURE4_FRACTIONS = (0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90)

#: Figure 4 compares the protocols with healing mechanisms.
FIGURE4_PROTOCOLS = ("hyparview", "cyclon-acked", "cyclon")
